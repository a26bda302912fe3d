"""Deterministic wire-fault hooks for tests.

Each double is assigned to ``link.impairments`` (the adapters' one
wire-fault hook) and counts events over both directions of the link.
"""


class PassThrough:
    """A hook that delivers every PDU untouched, at the adapter's time."""

    def attach(self, testbed):
        testbed.link.impairments = self
        return self

    def link_error(self):
        """Whether the receiver's link check rejects this transmission."""
        return False

    def transmit_atm(self, adapter, peer, delay_ns, pdu, n_cells,
                     data_bearing):
        adapter.host.sim.schedule(delay_ns, peer.deliver, pdu, n_cells,
                                  self.link_error(), data_bearing)

    def transmit_ether(self, adapter, peer, delay_ns, pdu, data_bearing):
        adapter.host.sim.schedule(delay_ns, peer.deliver, pdu,
                                  self.link_error(), data_bearing)

    def receive(self, pdu):
        return pdu


class DropNth(PassThrough):
    """Fail the link check of the Nth transmissions (1-based): the PDU
    still fills the receiver's RX FIFO and is discarded after the drain,
    a clean model of a lost packet."""

    def __init__(self, *targets):
        self.targets = set(targets)
        self.count = 0

    def link_error(self):
        self.count += 1
        return self.count in self.targets


class CorruptNth(PassThrough):
    """Flip one payload byte of the Nth accepted PDUs after the link check
    (the controller stage), leaving detection to the TCP checksum."""

    def __init__(self, *targets, byte_index=45):
        self.targets = set(targets)
        self.count = 0
        self.byte_index = byte_index

    def receive(self, pdu):
        self.count += 1
        if self.count in self.targets:
            buf = bytearray(pdu)
            buf[self.byte_index % len(buf)] ^= 0xFF
            return bytes(buf)
        return pdu
