"""GPU interconnect topology (paper Fig. 5).

The evaluation cluster: 4 servers in one rack, each with 8 Tesla V100s
in an NVLink hybrid cube-mesh, connected by Mellanox ConnectX-4
100 Gb/s NICs.  ``dgx1_topology`` reproduces the Fig. 5 connection
matrix: each GPU reaches some peers over double NVLink (NV2), some over
single NVLink (NV1), and the rest through the host (NODE).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple


class LinkType(enum.Enum):
    """Interconnect tiers, fastest to slowest."""

    NV2 = "NV2"  # two bonded NVLink lanes
    NV1 = "NV1"  # one NVLink lane
    NODE = "NODE"  # PCIe + host bridge within a server
    NIC = "NIC"  # network card between servers
    SELF = "X"


#: Unidirectional bandwidth per link type, bytes/second.
LINK_BANDWIDTH: Dict[LinkType, float] = {
    LinkType.NV2: 50e9,
    LinkType.NV1: 25e9,
    LinkType.NODE: 10e9,
    LinkType.NIC: 12.5e9,  # 100 Gb/s
    LinkType.SELF: float("inf"),
}


@dataclass(frozen=True)
class ServerTopology:
    """Connection matrix between the GPUs of one server."""

    num_gpus: int
    links: Tuple[Tuple[LinkType, ...], ...]

    def link(self, a: int, b: int) -> LinkType:
        return self.links[a][b]

    def bandwidth(self, a: int, b: int) -> float:
        return LINK_BANDWIDTH[self.link(a, b)]

    def ring_bandwidth(self, ring: List[int]) -> float:
        """Bottleneck bandwidth of a ring visiting ``ring`` in order."""
        if len(ring) <= 1:
            return float("inf")
        hops = zip(ring, ring[1:] + ring[:1])
        return min(self.bandwidth(a, b) for a, b in hops)

    def render(self) -> str:
        """Fig. 5-style text matrix."""
        header = "     " + " ".join(f"GPU{j}" for j in range(self.num_gpus))
        rows = [header]
        for i in range(self.num_gpus):
            cells = " ".join(f"{self.links[i][j].value:>4}" for j in range(self.num_gpus))
            rows.append(f"GPU{i} {cells}")
        return "\n".join(rows)


def dgx1_topology() -> ServerTopology:
    """The 8-GPU hybrid cube-mesh of the paper's servers (Fig. 5).

    Two quads (0–3 and 4–7); within each quad a mix of NV1/NV2 links,
    one NVLink per GPU crossing to the peer quad, remaining pairs
    communicating through the host (NODE).
    """
    n = 8
    matrix = [[LinkType.NODE] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = LinkType.SELF

    def connect(a: int, b: int, link: LinkType) -> None:
        matrix[a][b] = link
        matrix[b][a] = link

    # Intra-quad rings with doubled links on the ring edges.
    for base in (0, 4):
        connect(base + 0, base + 1, LinkType.NV1)
        connect(base + 1, base + 2, LinkType.NV2)
        connect(base + 2, base + 3, LinkType.NV1)
        connect(base + 3, base + 0, LinkType.NV2)
        connect(base + 0, base + 2, LinkType.NV1)
        connect(base + 1, base + 3, LinkType.NV1)
    # Cross-quad NVLinks (the cube edges).
    connect(0, 4, LinkType.NV2)
    connect(1, 5, LinkType.NV1)
    connect(2, 6, LinkType.NV2)
    connect(3, 7, LinkType.NV1)
    return ServerTopology(n, tuple(tuple(row) for row in matrix))


@dataclass(frozen=True)
class ClusterSpec:
    """A multi-server cluster, as in the paper's exclusive 32-GPU setup."""

    num_servers: int = 4
    gpus_per_server: int = 8
    server: ServerTopology = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.server is None:
            object.__setattr__(self, "server", dgx1_topology())

    @property
    def total_gpus(self) -> int:
        return self.num_servers * self.gpus_per_server

    def placement(self, world_size: int) -> List[Tuple[int, int]]:
        """(server, local gpu) for each rank, packing servers first."""
        if world_size > self.total_gpus:
            raise ValueError(
                f"world size {world_size} exceeds cluster capacity {self.total_gpus}"
            )
        return [
            (rank // self.gpus_per_server, rank % self.gpus_per_server)
            for rank in range(world_size)
        ]

    def spans_servers(self, world_size: int) -> bool:
        return world_size > self.gpus_per_server
