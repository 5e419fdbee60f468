"""Network case data: buses, branches, admittance matrix, sensor index map."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

DEFAULT_CASE = Path(__file__).resolve().parent.parent / "data" / "ieee14.case"
# the PV buses, in the order of every setpoint and commitment column
GENERATOR_BUSES = (2, 3, 6, 8)


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # "slack" | "generator" | "load"
    voltage_setpoint: float | None
    load_active: float
    load_reactive: float


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    resistance: float
    reactance: float
    line_charging: float
    flow_limit: float


@dataclass(frozen=True)
class GridCase:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def slack_bus(self) -> int:
        return next(b.id for b in self.buses if b.kind == "slack")

    @property
    def generator_buses(self) -> list[int]:
        return [b.id for b in self.buses if b.kind == "generator"]

    @property
    def generation_buses(self) -> list[int]:
        """Buses of the generation sensors, in sensor order (slack first)."""
        return [self.slack_bus] + self.generator_buses

    @property
    def load_buses(self) -> list[int]:
        return [b.id for b in self.buses if b.kind == "load"]

    def branches_at(self, bus_id: int) -> list[int]:
        """Indices of branches incident to a bus."""
        return [i for i, br in enumerate(self.branches)
                if bus_id in (br.from_bus, br.to_bus)]

    @cached_property
    def topology(self) -> Topology:
        """The case compiled for the solvers, built on first use."""
        return Topology(self)


def load_case() -> GridCase:
    """Parse DEFAULT_CASE, the packaged IEEE 14-bus case (see
    data/ieee14.case for the schema). It is program data, not a run's
    input, so nothing here checks it: tests/test_grid.py pins the structure
    the solvers rely on, and a line that does not parse fails with its
    traceback."""
    buses: list[Bus] = []
    branches: list[Branch] = []
    for raw in DEFAULT_CASE.read_text().splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "bus":
            vset = None if tok[3] == "-" else float(tok[3])
            buses.append(Bus(int(tok[1]), tok[2], vset,
                             float(tok[4]), float(tok[5])))
        else:  # branch
            branches.append(Branch(int(tok[1]), int(tok[2]),
                                   *map(float, tok[3:7])))
    return GridCase(tuple(buses), tuple(branches))


class Topology:
    """Admittances and 0-based index arrays of a case, built once per case.

    Each branch is a pi-model (taps = 1, no bus shunts): its Yf and Yt rows
    give the currents into it at its from- and to-bus, and the bus
    admittance matrix Y sums those rows into the rows of their buses.
    `power_rows`/`power_anchor` stack the complex powers the 39-sensor model
    measures, each of the form V[anchor] * conj(row @ V): the sending-end
    flow of every branch (Yf rows at their from-bus), then the injection at
    each generation sensor's bus (Y rows at that bus).
    """

    def __init__(self, case: GridCase):
        n, nbr = case.n_bus, len(case.branches)
        self.Yf = np.zeros((nbr, n), dtype=complex)
        Yt = np.zeros((nbr, n), dtype=complex)
        self.Y = np.zeros((n, n), dtype=complex)
        for i, br in enumerate(case.branches):
            f, t = br.from_bus - 1, br.to_bus - 1
            ys = 1.0 / complex(br.resistance, br.reactance)
            self.Yf[i, f] = Yt[i, t] = ys + 0.5j * br.line_charging
            self.Yf[i, t] = Yt[i, f] = -ys
            self.Y[f] += self.Yf[i]
            self.Y[t] += Yt[i]
        self.from_bus = np.array([br.from_bus - 1 for br in case.branches],
                                 dtype=int)
        self.buses = np.arange(n)
        self.pv = np.array(case.generator_buses, dtype=int) - 1
        self.pq = np.array(case.load_buses, dtype=int) - 1
        self.pvpq = np.sort(np.concatenate([self.pv, self.pq]))
        self.nonslack = np.delete(self.buses, case.slack_bus - 1)
        self.gen_order = np.array(case.generation_buses) - 1
        self.power_rows = np.vstack([self.Yf, self.Y[self.gen_order]])
        self.power_anchor = np.concatenate([self.from_bus, self.gen_order])
        # flat positions (k * n + anchor[k]) of each row's anchor entry in
        # the (rows, n) derivatives of Y and of power_rows
        self.bus_diag = self.buses * (n + 1)
        rows = np.arange(len(self.power_anchor))
        self.power_diag = n * rows + self.power_anchor

        # Newton-Raphson power flow: the buses whose voltage magnitude is
        # fixed (slack and PV) with their setpoints, and the slack's angle
        fixed = [b for b in case.buses if b.kind in ("slack", "generator")]
        self.fixed = np.array([b.id - 1 for b in fixed], dtype=int)
        self.fixed_vm = np.array([b.voltage_setpoint for b in fixed],
                                 dtype=float)
        self.slack = case.slack_bus - 1
        # positions of P(pvpq) and Q(pq) in S.view(float), where bus i's
        # P and Q sit at 2i and 2i + 1
        self.mis_index = np.concatenate([2 * self.pvpq, 2 * self.pq + 1])
        # positions of the Jacobian d[P(pvpq), Q(pq)] / d[Va(pvpq), Vm(pq)]
        # in concatenate([dS_dVa, dS_dVm], axis=1).view(float), an (n, 4n)
        # array whose complex column c holds its real and imaginary parts
        # at 2c and 2c + 1
        bus, part = np.divmod(self.mis_index, 2)
        cols = np.concatenate([self.pvpq, n + self.pq])
        self.jac_index = (4 * n * bus + part)[:, None] + 2 * cols

        # WLS state estimation over x = [va(nonslack) | vm]: positions of
        # d Re(S over power_rows) / dx in the same (rows, 4n) float view of
        # the power_rows derivatives, and the voltage sensors' rows dvm/dx
        cols = np.concatenate([self.nonslack, n + self.buses])
        self.se_index = (4 * n * rows)[:, None] + 2 * cols
        self.se_volt_rows = np.hstack([np.zeros((n, len(self.nonslack))),
                                       np.eye(n)])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


# ---------------------------------------------------------------------------
# Sensor index map: 39 sensors in fixed order
#   0..19  active power flow at the sending end of each branch (case order)
#   20..24 active generation of [slack, gen 2, gen 3, gen 6, gen 8]
#   25..38 voltage magnitude of buses 1..14

N_SENSORS = 39
FLOW_OFFSET = 0
GEN_OFFSET = 20
VOLT_OFFSET = 25


def sensor_map(case: GridCase) -> list[tuple[int, str, str]]:
    """Rows (index, kind, element) describing every sensor."""
    rows = []
    for i, br in enumerate(case.branches):
        rows.append((FLOW_OFFSET + i, "flow", f"{br.from_bus}-{br.to_bus}"))
    for j, bus in enumerate(case.generation_buses):
        rows.append((GEN_OFFSET + j, "generation", str(bus)))
    for b in case.buses:
        rows.append((VOLT_OFFSET + b.id - 1, "voltage", str(b.id)))
    return rows
