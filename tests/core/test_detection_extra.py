"""Additional detector state-machine branches."""

from __future__ import annotations

from repro.core.detection import ProblemDetector, ProblemType


def loss(*edges, rate=0.5):
    return {edge: rate for edge in edges}


def destination(topology):
    return loss(("DEN", "SJC"), ("LAX", "SJC"))


def source(topology):
    return loss(("NYC", "CHI"), ("NYC", "WAS"))


class TestDetectorTransitions:
    def make(self, topology, hold=10.0):
        return ProblemDetector(topology, "NYC", "SJC", hold_down_s=hold)

    def test_middle_escalates_to_endpoint(self, reference_topology):
        detector = self.make(reference_topology)
        assert detector.update(0.0, loss(("CHI", "DEN"))) is ProblemType.MIDDLE
        verdict = detector.update(1.0, destination(reference_topology))
        assert verdict is ProblemType.DESTINATION

    def test_expired_hold_allows_fresh_classification(self, reference_topology):
        detector = self.make(reference_topology, hold=5.0)
        detector.update(0.0, destination(reference_topology))
        # Long silence: hold expires; a new source problem replaces the
        # destination verdict instead of escalating.
        verdict = detector.update(20.0, source(reference_topology))
        assert verdict is ProblemType.SOURCE

    def test_source_then_destination_escalates(self, reference_topology):
        detector = self.make(reference_topology)
        detector.update(0.0, source(reference_topology))
        verdict = detector.update(3.0, destination(reference_topology))
        assert verdict is ProblemType.SOURCE_AND_DESTINATION

    def test_both_then_single_keeps_both_during_hold(self, reference_topology):
        detector = self.make(reference_topology)
        detector.update(
            0.0, {**source(reference_topology), **destination(reference_topology)}
        )
        verdict = detector.update(2.0, destination(reference_topology))
        assert verdict is ProblemType.SOURCE_AND_DESTINATION
