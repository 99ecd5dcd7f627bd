import cmath
import json
import random

import pytest

from localperiods.draws import conj_selfdual_unit
from localperiods.reps import (
    GenericRep,
    RamCusp,
    SatakeSet,
    Segment,
    UnramChar,
    is_conjugate_selfdual,
)


def unram(alpha, k=1):
    return Segment(UnramChar(alpha), k)


def ram(dim, cond, k=1):
    return Segment(RamCusp(dim, cond), k)


class TestConductor:
    def test_fully_unramified(self):
        rep = GenericRep((unram(1.0), unram(-1.0)))
        assert rep.conductor() == 0
        assert not rep.is_ramified()

    def test_length_two_on_unramified_character(self):
        # rank-2 special segment on an unramified character has depth one
        rep = GenericRep((unram(1.0, k=2),))
        assert rep.rank == 2
        assert rep.conductor() == 1

    def test_ramified_segment_scales_with_length(self):
        rep = GenericRep((ram(1, 2, k=3),))
        assert rep.conductor() == 6
        assert rep.rank == 3

    def test_additive_over_segments(self):
        rep = GenericRep((unram(1.0), unram(1.0, k=3), ram(2, 1)))
        assert rep.conductor() == 0 + 2 + 1
        assert rep.rank == 1 + 3 + 2

    def test_conductor_zero_iff_unramified(self):
        rng = random.Random(2)
        for _ in range(50):
            segs = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    segs.append(unram(cmath.exp(1j * rng.random()), k=rng.randint(1, 2)))
                else:
                    segs.append(ram(rng.randint(1, 2), rng.randint(1, 2)))
            rep = GenericRep(tuple(segs))
            expect_unram = all(
                isinstance(s.base, UnramChar) and s.length == 1 for s in rep.segments
            )
            assert (rep.conductor() == 0) == expect_unram


class TestUnramifiedPart:
    def test_all_ramified_is_empty(self):
        rep = GenericRep((ram(2, 1), ram(1, 3)))
        assert len(rep.unramified_part(9)) == 0

    def test_extraction(self):
        rep = GenericRep((unram(0.5j), ram(1, 2)))
        assert rep.unramified_part(9).params == (0.5j,)

    def test_ordering_by_modulus(self):
        rep = GenericRep((unram(2.0), unram(0.25)))
        assert rep.unramified_part(9).params == (0.25, 2.0)

    def test_invariant_under_permutation(self):
        rng = random.Random(5)
        segs = [unram(cmath.exp(2j * cmath.pi * rng.random())) for _ in range(3)] + [ram(1, 1)]
        rep1 = GenericRep(tuple(segs))
        rng.shuffle(segs)
        rep2 = GenericRep(tuple(segs))
        assert rep1.unramified_part(9) == rep2.unramified_part(9)

    def test_tempered_parameters_on_unit_circle(self):
        rng = random.Random(8)
        rep = GenericRep(
            tuple(unram(a) for a in conj_selfdual_unit(rng, 3)) + (ram(1, 1),)
        )
        sigma = rep.unramified_part(9)
        assert all(abs(abs(a) - 1) < 1e-12 for a in sigma)

    def test_segment_length_does_not_duplicate_parameter(self):
        rep = GenericRep((unram(1.0, k=2), ram(1, 1)))
        assert rep.unramified_part(9).params == (1 + 0j,)


class TestSatakeSet:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            SatakeSet((0.0, 1.0), 9)


class TestConjugateSelfdual:
    def test_rotation_pair(self):
        z = cmath.exp(0.7j)
        assert is_conjugate_selfdual((z, 1 / z))

    def test_self_inverse_elements(self):
        assert is_conjugate_selfdual((1.0, -1.0))

    def test_plain_scalar_fails(self):
        assert not is_conjugate_selfdual((2.0,))

    def test_generated_families(self):
        rng = random.Random(13)
        for _ in range(30):
            m = rng.randint(1, 5)
            assert is_conjugate_selfdual(conj_selfdual_unit(rng, m))

    def test_perturbation_fails(self):
        rng = random.Random(17)
        for _ in range(20):
            m = rng.randint(1, 4)
            params = list(conj_selfdual_unit(rng, m))
            params[rng.randrange(m)] *= cmath.exp(1e-3j) if abs(params[0].imag) > 0.1 else 1.001
            assert not is_conjugate_selfdual(tuple(params))

    def test_needs_matching_not_greedy(self):
        # multiset where a greedy pairing could mispair: {i, i, -i, -i}
        assert is_conjugate_selfdual((1j, 1j, -1j, -1j))
        assert not is_conjugate_selfdual((1j, 1j, 1j, -1j))

    def test_relative_tolerance(self):
        # 1 + e and its inverse differ by about 2e relative to their size
        assert is_conjugate_selfdual((1 + 1e-11,))
        assert not is_conjugate_selfdual((1 + 1e-9,))


class TestJsonRoundTrip:
    def test_round_trip(self):
        rep = GenericRep((unram(0.5 + 0.25j, k=2), ram(2, 3), Segment(RamCusp(1, 1), 2)))
        blob = json.dumps(rep.to_json())
        assert GenericRep.from_json(json.loads(blob)) == rep

    def test_a_label_is_ignored(self):
        # segments files once carried a "label" on a ramified segment; it
        # loads, and like any other unknown key it is not kept
        data = {"segments": [{"type": "ram", "dim": 1, "cond": 2, "k": 1, "label": "x"}]}
        rep = GenericRep.from_json(data)
        assert rep == GenericRep((ram(1, 2),))
        assert "label" not in rep.to_json()["segments"][0]

    def test_documented_shape(self):
        rep = GenericRep((unram(1.0), ram(1, 2)))
        data = rep.to_json()
        assert data == {
            "segments": [
                {"type": "unram", "alpha": [1.0, 0.0], "k": 1},
                {"type": "ram", "dim": 1, "cond": 2, "k": 1},
            ]
        }

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError):
            GenericRep.from_json({"segments": [{"type": "mystery"}]})
