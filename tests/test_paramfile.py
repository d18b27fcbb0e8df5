import pytest

from infoeq import (
    InfoEqError,
    ParseError,
    cobb_douglas_params,
    interest_params,
    load_params,
    price_level_params,
    save_params,
)


class TestLoadParams:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "# calibration\n"
            "alpha = 0.641\n"
            "\n"
            "gamma = 5.93e-4  # note after value\n"
            "M0=603.8\n"
        )
        got = load_params(path)
        assert got == {"alpha": 0.641, "gamma": 5.93e-4, "M0": 603.8}
        assert list(got) == ["alpha", "gamma", "M0"]

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"alpha = 1.0\n\xff = 2.0\n")
        with pytest.raises(ParseError, match="not valid UTF-8") as info:
            load_params(path)
        assert isinstance(info.value, InfoEqError)

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("alpha = 1.0\njust words\n")
        with pytest.raises(ParseError, match="line 2"):
            load_params(path)

    def test_empty_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("= 3.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_params(path)

    def test_duplicate_key_reports_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("k = 1.0\nk = 2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_params(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# ok\nalpha = fast\n")
        with pytest.raises(ParseError, match="line 2"):
            load_params(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.txt"
        params = {"alpha": 0.6412345678901234, "M0": 603.8, "k_i": 3.49}
        save_params(path, params)
        assert load_params(path) == params


class TestConverters:
    MAPPING = {
        "alpha": 0.641,
        "gamma": 5.93e-4,
        "M0": 603.8,
        "k_i": 3.49,
        "k_p": 0.124,
        "A": 0.0024,
        "k1": 0.44,
        "k2": 0.84,
    }

    def test_price_level(self):
        got = price_level_params(self.MAPPING)
        assert (got.alpha, got.gamma, got.m0) == (0.641, 5.93e-4, 603.8)

    def test_interest(self):
        got = interest_params(self.MAPPING)
        assert (got.k_i, got.k_p) == (3.49, 0.124)

    def test_cobb_douglas(self):
        got = cobb_douglas_params(self.MAPPING)
        assert (got.a, got.k1, got.k2) == (0.0024, 0.44, 0.84)

    def test_missing_keys_listed(self):
        with pytest.raises(ParseError, match="gamma"):
            price_level_params({"alpha": 0.6})
        with pytest.raises(ParseError, match="k_p"):
            interest_params({"k_i": 3.0})
        with pytest.raises(ParseError, match="k2"):
            cobb_douglas_params({"A": 1.0, "k1": 0.5})
