"""The TCA-100 transmit FIFO schedule: linear pass vs the quadratic count.

``tx_fifo_schedule`` computes the driver's write / wire drain schedule in
one pass.  ``quadratic_schedule`` below is the cell-by-cell loop it
replaced, kept verbatim as the reference: it recounts every earlier
departure to find each cell's FIFO occupancy.
"""

import random
from typing import List

import pytest

from repro.atm.aal import cells_needed
from repro.atm.adapter import tx_fifo_schedule

CELL_NS = 3029            # 140 Mb/s TAXI cell time (AtmLink default)
MAX_CELLS = cells_needed(9188)   # a full ATM-MTU datagram


def quadratic_schedule(n, t0, wire_gate, per_cell_write_ns, cell_time_ns,
                       depth):
    write_done: List[int] = [0] * (n + 1)   # W[k], 1-based
    depart: List[int] = [0] * (n + 1)       # E[k]
    prev_depart = wire_gate
    max_occupancy = 0
    for k in range(1, n + 1):
        earliest = (write_done[k - 1] if k > 1 else t0) \
            + per_cell_write_ns
        if k > depth:
            earliest = max(earliest, depart[k - depth])
        write_done[k] = earliest
        start_tx = max(write_done[k], prev_depart)
        depart[k] = start_tx + cell_time_ns
        prev_depart = depart[k]
        in_fifo = k - sum(1 for j in range(1, k)
                          if depart[j] <= write_done[k])
        if in_fifo > max_occupancy:
            max_occupancy = in_fifo
    return write_done[n], depart[1], depart[n], max_occupancy


# Per-cell write times below, at and above the cell time: the driver
# outruns the wire (the FIFO fills), keeps pace, or lags it (never fills).
WRITE_NS = {
    "below": lambda rng: rng.randint(1, CELL_NS - 1),
    "equal": lambda rng: CELL_NS,
    "above": lambda rng: rng.randint(CELL_NS + 1, 3 * CELL_NS),
}
# Wire-gate offsets past t0: idle wire, a previous packet still clocking
# out (under one FIFO's worth of cells), and a back-to-back packet whose
# predecessor holds the wire for more than a FIFO's worth.
GATE_NS = {
    "idle": lambda rng, depth: 0,
    "short": lambda rng, depth: rng.randint(1, depth * CELL_NS - 1),
    "long": lambda rng, depth: rng.randint(depth * CELL_NS + 1,
                                           5 * depth * CELL_NS),
}


@pytest.mark.parametrize("depth", [8, 36])
@pytest.mark.parametrize("write", sorted(WRITE_NS))
def test_matches_quadratic_reference(depth, write):
    rng = random.Random(f"{depth}-{write}")
    for n in range(1, MAX_CELLS + 1):
        for gate in sorted(GATE_NS):
            t0 = rng.randint(0, 10**9)
            args = (n, t0, t0 + GATE_NS[gate](rng, depth),
                    WRITE_NS[write](rng), CELL_NS, depth)
            assert tx_fifo_schedule(*args) == quadratic_schedule(*args), \
                (gate, args)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the seeded sweep above still runs
    st = None

if st is not None:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, MAX_CELLS),
           t0=st.integers(0, 10**12),
           gate_offset=st.integers(0, 300 * CELL_NS),
           write_ns=st.integers(1, 4 * CELL_NS),
           cell_ns=st.integers(1, 2 * CELL_NS),
           depth=st.integers(1, 64))
    def test_matches_quadratic_reference_property(n, t0, gate_offset,
                                                  write_ns, cell_ns, depth):
        args = (n, t0, t0 + gate_offset, write_ns, cell_ns, depth)
        assert tx_fifo_schedule(*args) == quadratic_schedule(*args)
