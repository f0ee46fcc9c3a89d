"""The validating alternating-line config, kept on the test side as a reference.

The engine tests a cut from the graph's own arrows, which build_graph has
already proved.  This module keeps the config the engine used to build for
every cut, which proves its line again: both labels admissible, the ends not
joined, the orientation read from the exponents.  The tests build configs
from loose parameters through it and compare the engine with what it gives.
pytest does not collect it (its name does not start with test_).
"""

from qfgraph.decision import alt_line_cut_simple, isolating_arrow
from qfgraph.dynkin import DynkinA
from qfgraph.redsets import string_parameter


class AltLineConfig:
    """An alternating three-vertex line, normalized for the cut test.

    The middle vertex carries both arrows; `middle_is_source` records the
    original orientation (the cut test itself is orientation-blind, since
    reversing all arrows negates every exponent and leaves the labels and
    the criterion's quantities unchanged).  `iso_label` is the exponent gap
    m on the arrow joining the middle to the end being isolated and
    `other_label` the gap m' on the remaining arrow.

    Building a config raises ValueError on a line that is not alternating;
    `arrow` holds the cut test's per-arrow part for the isolating arrow.
    """

    __slots__ = ("diagram", "iso_color", "iso_weight", "iso_label", "middle_color",
                 "middle_weight", "other_color", "other_weight", "other_label",
                 "middle_is_source", "arrow")

    def __init__(self, diagram: DynkinA, iso_color: int, iso_weight: int,
                 iso_label: int, middle_color: int, middle_weight: int,
                 other_color: int, other_weight: int, other_label: int,
                 middle_is_source: bool = True) -> None:
        for c in (iso_color, middle_color, other_color):
            diagram.check_node(c)
        self.arrow = isolating_arrow(diagram, iso_color, iso_weight, middle_color,
                                     middle_weight, iso_label)
        # Membership by string parameter, as in minimal_window: no set is built.
        if string_parameter(diagram, middle_color, middle_weight, other_color,
                            other_weight, other_label) is None:
            raise ValueError(f"label {other_label} is not an admissible arrow gap "
                             f"for the other end")
        if string_parameter(diagram, iso_color, iso_weight, other_color, other_weight,
                            abs(iso_label - other_label)) is not None:
            raise ValueError("end vertices are adjacent; the line is not alternating")
        self.diagram = diagram
        self.iso_color, self.iso_weight, self.iso_label = iso_color, iso_weight, iso_label
        self.middle_color, self.middle_weight = middle_color, middle_weight
        self.other_color, self.other_weight = other_color, other_weight
        self.other_label, self.middle_is_source = other_label, middle_is_source

    def params_json(self) -> dict:
        return {
            "isolated": {"color": self.iso_color, "weight": self.iso_weight,
                         "label": self.iso_label},
            "middle": {"color": self.middle_color, "weight": self.middle_weight},
            "other": {"color": self.other_color, "weight": self.other_weight,
                      "label": self.other_label},
            "middle_is_source": self.middle_is_source,
        }


def cut_simple(cfg: AltLineConfig) -> bool:
    """Is the tensor product isolating the i-end of the alternating line simple?"""
    return alt_line_cut_simple(cfg.arrow, cfg.other_color, cfg.other_weight,
                               cfg.other_label)


def _alt_configs(g, middle: int, iso: int, other: int) -> AltLineConfig:
    """Cut configuration for the alternating triple of g around the middle.

    An arrow's label is the exponent gap of its ends, so both labels and the
    orientation (the middle is the source when both ends lie below it) are
    read from the exponents; gaps of different signs raise ValueError.  The
    config's own checks prove both arrows and that the ends are not joined.
    """
    vm, vi, vo = g.vertices[middle], g.vertices[iso], g.vertices[other]
    m, mp = vm.exponent - vi.exponent, vm.exponent - vo.exponent
    if (m > 0) != (mp > 0):
        raise ValueError("vertices do not form an alternating line around the middle")
    return AltLineConfig(g.diagram, vi.color, vi.weight, abs(m),
                         vm.color, vm.weight,
                         vo.color, vo.weight, abs(mp),
                         middle_is_source=m > 0)
