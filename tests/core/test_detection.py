"""Problem classification and the stateful detector."""

from __future__ import annotations

import pytest

from repro.core.detection import (
    ProblemClassifier,
    ProblemDetector,
    ProblemType,
)
from repro.util.validation import ValidationError


def loss(*edges, rate=0.5):
    return {edge: rate for edge in edges}


class TestClassifier:
    def test_clean_network(self, reference_topology):
        assessment = ProblemClassifier().classify(
            reference_topology, "NYC", "SJC", {}
        )
        assert assessment.problem_type is ProblemType.NONE

    def test_destination_problem(self, reference_topology):
        rates = loss(("DEN", "SJC"), ("LAX", "SJC"))
        assessment = ProblemClassifier().classify(
            reference_topology, "NYC", "SJC", rates
        )
        assert assessment.problem_type is ProblemType.DESTINATION

    def test_source_problem(self, reference_topology):
        rates = loss(("NYC", "CHI"), ("NYC", "WAS"))
        assessment = ProblemClassifier().classify(
            reference_topology, "NYC", "SJC", rates
        )
        assert assessment.problem_type is ProblemType.SOURCE

    def test_both_endpoints(self, reference_topology):
        rates = loss(
            ("NYC", "CHI"), ("NYC", "WAS"), ("DEN", "SJC"), ("LAX", "SJC")
        )
        assessment = ProblemClassifier().classify(
            reference_topology, "NYC", "SJC", rates
        )
        assert assessment.problem_type is ProblemType.SOURCE_AND_DESTINATION

    def test_single_endpoint_link_is_middle(self, reference_topology):
        """One bad adjacent link is routable-around: not an endpoint problem."""
        rates = loss(("DEN", "SJC"))
        assessment = ProblemClassifier().classify(
            reference_topology, "NYC", "SJC", rates
        )
        assert assessment.problem_type is ProblemType.MIDDLE

    def test_both_directions_count_once(self, reference_topology):
        """A physical link degraded both ways is one problem, not two."""
        rates = loss(("DEN", "SJC"), ("SJC", "DEN"))
        assessment = ProblemClassifier().classify(
            reference_topology, "NYC", "SJC", rates
        )
        assert assessment.problem_type is ProblemType.MIDDLE

    def test_middle_problem(self, reference_topology):
        rates = loss(("CHI", "DEN"), ("DFW", "DEN"))
        assessment = ProblemClassifier().classify(
            reference_topology, "NYC", "SJC", rates
        )
        assert assessment.problem_type is ProblemType.MIDDLE

    def test_loss_threshold_filters(self, reference_topology):
        rates = {("DEN", "SJC"): 0.01, ("LAX", "SJC"): 0.01}
        assessment = ProblemClassifier(loss_threshold=0.02).classify(
            reference_topology, "NYC", "SJC", rates
        )
        assert assessment.problem_type is ProblemType.NONE

    def test_another_flows_endpoint_is_middle(self, reference_topology):
        """A problem at SEA is a middle problem for the NYC->SJC flow."""
        rates = loss(("CHI", "SEA"), ("DEN", "SEA"), ("SJC", "SEA"))
        assessment = ProblemClassifier().classify(
            reference_topology, "NYC", "SJC", rates
        )
        assert assessment.problem_type is ProblemType.MIDDLE

    def test_assessment_edge_lists(self, reference_topology):
        rates = loss(("NYC", "CHI"), ("CHI", "DEN"))
        assessment = ProblemClassifier(endpoint_link_threshold=1).classify(
            reference_topology, "NYC", "SJC", rates
        )
        assert assessment.degraded_source_links == (("NYC", "CHI"),)
        assert assessment.degraded_middle_edges == (("CHI", "DEN"),)

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            ProblemClassifier(loss_threshold=1.5)
        with pytest.raises(ValidationError):
            ProblemClassifier(endpoint_link_threshold=0)

    def test_unknown_endpoint_rejected(self, reference_topology):
        with pytest.raises(ValidationError):
            ProblemClassifier().classify(reference_topology, "NYC", "ZZZ", {})


class TestDetector:
    def make(self, reference_topology, hold_down=10.0):
        return ProblemDetector(
            reference_topology, "NYC", "SJC", hold_down_s=hold_down
        )

    def test_immediate_detection(self, reference_topology):
        detector = self.make(reference_topology)
        rates = loss(("DEN", "SJC"), ("LAX", "SJC"))
        assert detector.update(0.0, rates) is ProblemType.DESTINATION

    def test_hold_down_keeps_problem(self, reference_topology):
        detector = self.make(reference_topology, hold_down=10.0)
        rates = loss(("DEN", "SJC"), ("LAX", "SJC"))
        detector.update(0.0, rates)
        # Problem clears but hold-down keeps the classification.
        assert detector.update(5.0, {}) is ProblemType.DESTINATION
        assert detector.update(9.9, {}) is ProblemType.DESTINATION

    def test_hold_down_expires(self, reference_topology):
        detector = self.make(reference_topology, hold_down=10.0)
        rates = loss(("DEN", "SJC"), ("LAX", "SJC"))
        detector.update(0.0, rates)
        assert detector.update(10.1, {}) is ProblemType.NONE

    def test_reappearance_refreshes_hold(self, reference_topology):
        detector = self.make(reference_topology, hold_down=10.0)
        rates = loss(("DEN", "SJC"), ("LAX", "SJC"))
        detector.update(0.0, rates)
        detector.update(8.0, rates)  # burst returns
        assert detector.update(17.0, {}) is ProblemType.DESTINATION
        assert detector.update(18.5, {}) is ProblemType.NONE

    def test_escalation_to_both(self, reference_topology):
        detector = self.make(reference_topology, hold_down=10.0)
        detector.update(0.0, loss(("DEN", "SJC"), ("LAX", "SJC")))
        verdict = detector.update(
            2.0, loss(("NYC", "CHI"), ("NYC", "WAS"))
        )
        assert verdict is ProblemType.SOURCE_AND_DESTINATION

    def test_middle_does_not_displace_endpoint(self, reference_topology):
        detector = self.make(reference_topology, hold_down=10.0)
        detector.update(0.0, loss(("DEN", "SJC"), ("LAX", "SJC")))
        verdict = detector.update(2.0, loss(("CHI", "DFW")))
        assert verdict is ProblemType.DESTINATION

    def test_time_must_not_go_backwards(self, reference_topology):
        detector = self.make(reference_topology)
        detector.update(5.0, {})
        with pytest.raises(ValidationError):
            detector.update(4.0, {})

    def test_middle_then_clear(self, reference_topology):
        detector = self.make(reference_topology, hold_down=5.0)
        assert detector.update(0.0, loss(("CHI", "DEN"))) is ProblemType.MIDDLE
        assert detector.update(6.0, {}) is ProblemType.NONE
