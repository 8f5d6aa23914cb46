"""Unit and property tests for eligibility requirements and the atom space."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requirements import (
    COMPUTE_RICH,
    DEFAULT_CATEGORIES,
    GENERAL,
    HIGH_PERFORMANCE,
    MEMORY_RICH,
    AtomSpace,
    EligibilityRequirement,
    signature_of,
)
from tests.conftest import make_device


class TestEligibilityRequirement:
    def test_general_accepts_everything(self):
        assert GENERAL.is_eligible(make_device(cpu=0.0, mem=0.0))
        assert GENERAL.is_eligible(make_device(cpu=1.0, mem=1.0))

    def test_thresholds(self):
        weak = make_device(cpu=0.2, mem=0.9)
        strong = make_device(cpu=0.9, mem=0.9)
        assert not COMPUTE_RICH.is_eligible(weak)
        assert COMPUTE_RICH.is_eligible(strong)
        assert MEMORY_RICH.is_eligible(weak)
        assert HIGH_PERFORMANCE.is_eligible(strong)
        assert not HIGH_PERFORMANCE.is_eligible(weak)

    def test_data_domain_requirement(self):
        emoji_req = EligibilityRequirement("emoji", data_domain="emoji")
        assert emoji_req.is_eligible(make_device(domains={"emoji", "speech"}))
        assert not emoji_req.is_eligible(make_device(domains={"speech"}))

    def test_requires_name(self):
        with pytest.raises(ValueError):
            EligibilityRequirement("")

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            EligibilityRequirement("x", min_cpu=1.5)
        with pytest.raises(ValueError):
            EligibilityRequirement("x", min_memory=-0.1)


class TestSignature:
    def test_signature_of_default_categories(self):
        strong = make_device(cpu=0.9, mem=0.9)
        sig = signature_of(strong, DEFAULT_CATEGORIES)
        assert sig == frozenset(
            {"general", "compute_rich", "memory_rich", "high_performance"}
        )

    def test_signature_low_end(self):
        weak = make_device(cpu=0.1, mem=0.1)
        assert signature_of(weak, DEFAULT_CATEGORIES) == frozenset({"general"})

    @given(
        cpu=st.floats(min_value=0.0, max_value=1.0),
        mem=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_signature_monotone_in_capacity(self, cpu, mem):
        """A strictly stronger device satisfies a superset of requirements."""
        weak = make_device(device_id=0, cpu=cpu * 0.5, mem=mem * 0.5)
        strong = make_device(device_id=1, cpu=cpu, mem=mem)
        weak_sig = signature_of(weak, DEFAULT_CATEGORIES)
        strong_sig = signature_of(strong, DEFAULT_CATEGORIES)
        assert weak_sig <= strong_sig


class TestAtomSpace:
    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            AtomSpace([GENERAL, EligibilityRequirement("general", min_cpu=0.3)])

    def test_enumerates_default_category_atoms(self, categories):
        space = AtomSpace(categories)
        atoms = space.atoms
        # The four quadrants of the (cpu, mem) grid must all be present.
        assert frozenset({"general"}) in atoms
        assert frozenset({"general", "compute_rich"}) in atoms
        assert frozenset({"general", "memory_rich"}) in atoms
        assert (
            frozenset(
                {"general", "compute_rich", "memory_rich", "high_performance"}
            )
            in atoms
        )

    def test_eligible_atoms_nesting(self, categories):
        space = AtomSpace(categories)
        assert space.eligible_atoms("high_performance") <= space.eligible_atoms(
            "compute_rich"
        )
        assert space.eligible_atoms("compute_rich") <= space.eligible_atoms("general")
        assert not space.eligible_atoms("general") <= space.eligible_atoms(
            "high_performance"
        )

    def test_observed_signature_registers_an_atom(self, categories):
        space = AtomSpace(categories)
        device = make_device(cpu=0.9, mem=0.1, domains={"emoji"})
        sig = signature_of(device, categories)
        assert "compute_rich" in sig and "memory_rich" not in sig
        space.observe_signature(sig)
        assert sig in space.atoms

    def test_observe_signature_validates_names(self, categories):
        space = AtomSpace(categories)
        with pytest.raises(KeyError):
            space.observe_signature(frozenset({"nonexistent"}))

    def test_eligible_atoms_unknown_requirement(self, categories):
        space = AtomSpace(categories)
        with pytest.raises(KeyError):
            space.eligible_atoms("nope")

    def test_domain_requirements_create_domain_atoms(self):
        emoji = EligibilityRequirement("emoji", data_domain="emoji")
        space = AtomSpace([GENERAL, emoji])
        emoji_atoms = space.eligible_atoms("emoji")
        assert all("emoji" in atom for atom in emoji_atoms)
        # Devices without the domain form a general-only atom.
        assert frozenset({"general"}) in space.atoms

    @given(
        cpu=st.floats(min_value=0.0, max_value=1.0),
        mem=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_device_signature_is_known_atom(self, cpu, mem):
        """The grid enumeration covers every threshold-only device signature."""
        space = AtomSpace(DEFAULT_CATEGORIES)
        known = set(space.atoms)
        device = make_device(cpu=cpu, mem=mem)
        assert signature_of(device, DEFAULT_CATEGORIES) in known
