from fractions import Fraction

import pytest

from fishburn.families import NAMED_IDS, fishburn_numbers, named_sequence, variant_gf
from fishburn.oeis import (
    BfileParseError,
    CrossCheckReport,
    FetchError,
    OeisSequence,
    UnknownSequenceError,
    cross_check,
    fetch,
    fixture_ids,
    format_bfile,
    parse_bfile,
)


class TestParseBfile:
    def test_basic(self):
        seq = parse_bfile("0 1\n1 1\n2 2\n", "A022493")
        assert seq.offset == 0
        assert seq.values == (1, 1, 2)
        assert seq.terms == {0: 1, 1: 1, 2: 2}

    def test_comments_and_blanks_skipped(self):
        seq = parse_bfile("# header\n\n1 5\n# middle\n2 7\n", "A000001")
        assert seq.offset == 1 and seq.values == (5, 7)

    def test_negative_values_ok(self):
        seq = parse_bfile("0 1\n1 -1\n", "A003406")
        assert seq.values == (1, -1)

    def test_duplicate_index(self):
        with pytest.raises(BfileParseError, match="line 3: duplicate index 1"):
            parse_bfile("0 1\n1 2\n1 3\n")

    def test_non_integer_token(self):
        with pytest.raises(BfileParseError, match="line 2: non-integer"):
            parse_bfile("0 1\n1 x\n")

    def test_wrong_token_count(self):
        with pytest.raises(BfileParseError, match="line 1: expected"):
            parse_bfile("0 1 2\n")

    def test_comment_only_is_empty_error(self):
        with pytest.raises(BfileParseError, match="empty sequence"):
            parse_bfile("# nothing here\n")

    def test_gap_detected(self):
        with pytest.raises(BfileParseError, match="non-contiguous.*2"):
            parse_bfile("0 1\n1 1\n3 5\n")

    def test_roundtrip_through_format(self):
        seq = OeisSequence("A000001", 1, (3, 1, 4, 1, 5), "embedded")
        again = parse_bfile(format_bfile(seq, ["note"]), "A000001")
        assert again.offset == seq.offset and again.values == seq.values


class TestSequenceType:
    def test_validation(self):
        with pytest.raises(ValueError, match="not an A-number"):
            OeisSequence("22493", 0, (1,), "embedded")
        with pytest.raises(ValueError, match="empty"):
            OeisSequence("A022493", 0, (), "embedded")
        with pytest.raises(ValueError, match="unknown source"):
            OeisSequence("A022493", 0, (1,), "oracle")

    def test_term_lookup(self):
        seq = OeisSequence("A000001", 2, (9, 8, 7), "embedded")
        assert seq.term(3) == 8
        assert seq.last_index == 4
        with pytest.raises(IndexError):
            seq.term(5)


class TestFixtures:
    def test_all_catalog_ids_embedded(self):
        assert fixture_ids() == tuple(sorted(NAMED_IDS))

    @pytest.mark.parametrize("id", sorted(NAMED_IDS))
    def test_fixture_has_enough_terms(self, id):
        seq = fetch(id, mode="offline")
        assert seq.source == "embedded"
        assert len(seq) >= 15

    def test_fishburn_fixture_prefix(self):
        seq = fetch("A022493", mode="offline")
        assert seq.values[:7] == (1, 1, 2, 5, 15, 53, 217)

    def test_unknown_id_offline(self):
        with pytest.raises(UnknownSequenceError):
            fetch("A000000", mode="offline")

    def test_invalid_id(self):
        with pytest.raises(ValueError, match="not an A-number"):
            fetch("fishburn")

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="unknown fetch mode"):
            fetch("A022493", mode="live")

    @pytest.mark.parametrize("id", sorted(NAMED_IDS))
    def test_fixture_matches_recomputation(self, id):
        seq = fetch(id, mode="offline")
        assert list(seq.values) == named_sequence(id, len(seq))


SAMPLE = "# sample\n0 1\n1 1\n2 2\n3 5\n"


class TestFetchModes:
    def test_network_mode_parses_each_download(self, monkeypatch):
        monkeypatch.delenv("FORGE_OFFLINE", raising=False)
        calls = []

        def transport(url):
            calls.append(url)
            return SAMPLE

        for _ in range(2):
            seq = fetch("A022493", mode="network", transport=transport)
            assert seq.source == "network"
            assert seq.values == (1, 1, 2, 5)
        assert len(calls) == 2 and "A022493" in calls[0]

    def test_parse_failure_not_cached(self, monkeypatch):
        monkeypatch.delenv("FORGE_OFFLINE", raising=False)
        with pytest.raises(BfileParseError):
            fetch("A022493", mode="network", transport=lambda url: "0 x\n")

    def test_offline_env_blocks_network(self, monkeypatch):
        monkeypatch.setenv("FORGE_OFFLINE", "1")
        with pytest.raises(FetchError, match="forbidden"):
            fetch("A000099", mode="network")
        # a fixture id too: a live check must not compare a fixture with itself
        with pytest.raises(FetchError, match="forbidden"):
            fetch("A022493", mode="network", transport=lambda url: SAMPLE)


class TestCrossCheck:
    def test_full_match(self):
        seq = fetch("A022493", mode="offline")
        rep = cross_check(list(fishburn_numbers(20)), seq)
        assert rep.ok and rep.start == 0 and rep.end == 20
        assert "match" in str(rep)

    def test_times_factorial(self):
        seq = fetch("A158690", mode="offline")
        f = variant_gf("A158690-form1", 15)
        rep = cross_check([f.coeff(n) for n in range(16)], seq,
                          scaling="times_factorial")
        assert rep.ok

    def test_perturbed_term_detected(self):
        seq = fetch("A022493", mode="offline")
        vals = list(fishburn_numbers(10))
        vals[7] += 1
        rep = cross_check(vals, seq)
        assert not rep.ok
        assert rep.first_mismatch == 7
        assert rep.computed_value == rep.expected_value + 1
        assert "mismatch at 7" in str(rep)

    def test_offset_start(self):
        seq = fetch("A207434", mode="offline")
        computed = named_sequence("A207434", 10)
        rep = cross_check(computed, seq, start=1)
        assert rep.ok and rep.start == 1

    def test_empty_overlap(self):
        seq = OeisSequence("A000001", 5, (1, 2), "embedded")
        with pytest.raises(ValueError, match="no overlap"):
            cross_check([1, 2, 3], seq, start=0)

    def test_non_integer_rejected(self):
        seq = fetch("A022493", mode="offline")
        with pytest.raises(ValueError, match="not an integer"):
            cross_check([Fraction(1, 2)], seq)

    def test_unknown_scaling(self):
        seq = fetch("A022493", mode="offline")
        with pytest.raises(ValueError, match="unknown scaling"):
            cross_check([1], seq, scaling="times_two")
