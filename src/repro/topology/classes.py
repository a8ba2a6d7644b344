"""Spatial class rules: binding channel classes to concrete links.

Definition 6 allows partitioning by *location* as well as by direction —
"channels located in different rows are disjoint such as X_even and
X_odd".  A :class:`ClassRule` assigns every link the spatial-class tag a
design channel must carry to be instantiated on that link: a design
channel exists on a link iff its ``cls`` equals the rule's tag for the
link.

Rules used by the paper's case studies:

* :func:`no_classes` — everything untagged (the common case);
* :func:`column_parity` — Y links tagged ``e``/``o`` by their column's X
  coordinate (the Odd-Even model, Figure 10);
* :func:`row_parity` — X links tagged by their row's Y coordinate (the
  Hamiltonian-path strategy, §6.2).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TopologyError
from repro.topology.base import Link

#: A rule maps each link to the class tag channels need to ride it.
ClassRule = Callable[[Link], str]


def no_classes(link: Link) -> str:
    """Every link untagged — designs without spatial classes."""
    return ""


def column_parity(link: Link) -> str:
    """Odd-Even classing: Y links tagged by the parity of their column.

    A Y link never changes the X coordinate, so ``src[0]`` identifies the
    column.  X links stay untagged.
    """
    if link.dim == 1:
        return "e" if link.src[0] % 2 == 0 else "o"
    return ""


def _missing_coordinate(rule: str, coordinate: int, link: Link) -> TopologyError:
    """The error for a rule that reads a coordinate the topology lacks."""
    return TopologyError(
        f"class rule {rule} reads coordinate {coordinate} of each link, "
        f"but the topology is {len(link.src)}-dimensional"
    )


def row_parity(link: Link) -> str:
    """Hamiltonian-path classing: X links tagged by the parity of their row."""
    if link.dim == 0:
        try:
            row = link.src[1]
        except IndexError:
            raise _missing_coordinate("row-parity", 1, link) from None
        return "e" if row % 2 == 0 else "o"
    return ""


def parity_rule(classed_dim: int, parity_of: int) -> ClassRule:
    """A general parity rule: tag ``classed_dim`` links by coordinate ``parity_of``."""

    def rule(link: Link) -> str:
        if link.dim == classed_dim:
            try:
                coordinate = link.src[parity_of]
            except IndexError:
                raise _missing_coordinate(
                    f"parity({classed_dim}, {parity_of})", parity_of, link
                ) from None
            return "e" if coordinate % 2 == 0 else "o"
        return ""

    return rule


def dateline(link: Link) -> str:
    """Torus dateline classing: wrap links tagged ``w``, others ``r``.

    With channels split into pre-/post-dateline VCs (see
    :func:`repro.core.torus_designs.dateline_design`), the wrap link is
    the only place packets may switch VC — the EbDa rendering of Dally's
    dateline scheme and of the paper's Theorem-2 remark that each
    wrap-around channel contributes two unidirectional channels plus two
    U-turns.
    """
    return "w" if link.is_wraparound else "r"


def local_global(link: Link) -> str:
    """Dragonfly classing: local links tagged ``l``, global links ``g``.

    The canonical form of :func:`repro.routing.dragonfly.dragonfly_rule`
    (same tags, importable without the routing package) — dragonfly links
    have no geometric direction, so the EbDa structure lives entirely in
    the ``L1 -> G -> L2`` class ordering.
    """
    from repro.topology.dragonfly import LOCAL_DIM

    return "l" if link.dim == LOCAL_DIM else "g"


def up_down_signs(link: Link) -> str:
    """Up*/Down* classing by link sign: ``+`` up (``u``), ``-`` down (``d``).

    Exact for topologies whose link signs encode the level direction —
    the two-level :class:`~repro.topology.fattree.FatTree` labels every
    terminal→leaf and leaf→spine link ``+1`` and the reverse links ``-1``,
    so this rule coincides with the tags
    :meth:`~repro.routing.updown.UpDownRouting.class_rule` derives from
    explicit levels.  Topologies without sign-encoded levels (dragonfly:
    every link is ``+1``) need the BFS-level rule from a routing instance
    instead.
    """
    return "u" if link.sign > 0 else "d"


#: Named rules for lookups in experiment configuration.
NAMED_RULES: dict[str, ClassRule] = {
    "none": no_classes,
    "column-parity": column_parity,
    "row-parity": row_parity,
    "dateline": dateline,
    "dragonfly": local_global,
    "updown-signs": up_down_signs,
}


def rule_for_design(design_name: str) -> ClassRule:
    """The class rule each catalog design expects.

    Designs without spatial classes use :func:`no_classes`.
    """
    if design_name == "odd-even":
        return column_parity
    if design_name == "hamiltonian":
        return row_parity
    if design_name in ("dragonfly-minimal", "dragonfly-valiant"):
        return local_global
    if design_name == "fattree-updown":
        return up_down_signs
    return no_classes
