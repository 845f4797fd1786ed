import pytest

from posetsat import (
    UsageError,
    butterfly_construction,
    enumerate_saturated_families,
    exact_sat_star,
    n_construction,
    sample_saturated_families,
    saturation_report,
    upper_bound_via_random_greedy,
)


class TestEnumerate:
    def test_n2_butterfly_unique(self, butterfly):
        fams = enumerate_saturated_families(2, butterfly)
        assert len(fams) == 1
        assert fams[0].bit_list == (0, 1, 2, 3)

    def test_n3_butterfly_unique_power_set(self, butterfly):
        fams = enumerate_saturated_families(3, butterfly)
        assert len(fams) == 1
        assert set(fams[0].bit_list) == set(range(8))

    def test_n3_n_complete_list(self, nposet):
        fams = enumerate_saturated_families(3, nposet)
        assert len(fams) == 9
        assert min(len(f) for f in fams) == 6
        for fam in fams:
            assert saturation_report(fam, nposet).saturated

    def test_n4_counts(self, butterfly, nposet):
        assert len(enumerate_saturated_families(4, butterfly)) == 12
        assert len(enumerate_saturated_families(4, nposet)) == 118

    def test_cap_truncates(self, nposet):
        fams = enumerate_saturated_families(3, nposet, cap=4)
        assert len(fams) == 4

    def test_large_n_needs_cap(self, butterfly):
        with pytest.raises(UsageError):
            enumerate_saturated_families(5, butterfly)

    def test_n5_capped_walk_yields_saturated_families(self, butterfly):
        fams = enumerate_saturated_families(5, butterfly, cap=3)
        assert len(fams) == 3
        for fam in fams:
            assert saturation_report(fam, butterfly).saturated
        assert len({f.bit_list for f in fams}) == 3


class TestExactSatStar:
    def test_frozen_small_values(self, butterfly):
        assert exact_sat_star(2, butterfly).value == 4
        assert exact_sat_star(3, butterfly).value == 8

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_agreement_two_paths(self, n, butterfly, nposet):
        for q in (butterfly, nposet):
            bnb = exact_sat_star(n, q)
            enum = exact_sat_star(n, q, method="enumerate")
            assert bnb.exact and enum.exact
            assert bnb.value == enum.value
            assert enum.enumerated_count >= 1

    def test_enumerate_method_counts(self, butterfly):
        res = exact_sat_star(3, butterfly, method="enumerate")
        assert res.value == 8 and res.enumerated_count == 1

    def test_certificates_reverify(self, butterfly, nposet):
        for q in (butterfly, nposet):
            res = exact_sat_star(3, q)
            assert saturation_report(res.certificate, q).saturated

    def test_monotone_sanity_vs_constructions(self, butterfly, nposet):
        assert exact_sat_star(4, butterfly, method="enumerate").value <= len(
            butterfly_construction(4)
        )
        assert exact_sat_star(3, nposet).value <= len(n_construction(3))

    def test_budget_expiry_returns_greedy_certificate(self, butterfly):
        res = exact_sat_star(6, butterfly, budget_s=0.05)
        assert not res.exact
        assert saturation_report(res.certificate, butterfly).saturated
        assert res.value <= len(butterfly_construction(6))

    def test_enumerate_method_rejected_for_large_n(self, butterfly):
        with pytest.raises(UsageError):
            exact_sat_star(5, butterfly, method="enumerate")

    def test_json_shape(self, butterfly):
        obj = exact_sat_star(2, butterfly).to_json_obj()
        assert set(obj) == {
            "n",
            "poset",
            "value",
            "exact",
            "certificate",
            "enumerated_count",
            "elapsed_ms",
        }
        assert obj["poset"] == "B"


class TestRandomGreedy:
    def test_butterfly_bound_via_construction_seed(self, butterfly):
        res = upper_bound_via_random_greedy(6, butterfly, trials=3, rng_seed=1)
        assert res.value <= len(butterfly_construction(6)) == 26
        assert not res.exact
        assert saturation_report(res.certificate, butterfly).saturated

    def test_n_bound_2n(self, nposet):
        res = upper_bound_via_random_greedy(6, nposet, trials=3, rng_seed=1)
        assert res.value <= 12

    def test_single_trial_with_saturated_seed_returns_it(self, nposet):
        seed_fam = n_construction(6)
        res = upper_bound_via_random_greedy(6, nposet, trials=1, rng_seed=7, seeds=[seed_fam])
        assert res.certificate.bit_list == seed_fam.bit_list

    def test_trials_must_be_positive(self, nposet):
        with pytest.raises(UsageError):
            upper_bound_via_random_greedy(4, nposet, trials=0, rng_seed=1)

    def test_reproducible(self, nposet):
        a = upper_bound_via_random_greedy(5, nposet, trials=4, rng_seed=11)
        b = upper_bound_via_random_greedy(5, nposet, trials=4, rng_seed=11)
        assert a.value == b.value
        assert a.certificate.bit_list == b.certificate.bit_list


class TestSampling:
    def test_sampled_families_are_saturated(self, butterfly):
        fams = sample_saturated_families(5, butterfly, 4, rng_seed=3)
        assert len(fams) == 4
        for fam in fams:
            assert saturation_report(fam, butterfly).saturated

    def test_deterministic(self, nposet):
        a = sample_saturated_families(5, nposet, 3, rng_seed=9)
        b = sample_saturated_families(5, nposet, 3, rng_seed=9)
        assert [f.bit_list for f in a] == [f.bit_list for f in b]
