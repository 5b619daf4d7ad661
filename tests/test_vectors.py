"""Vector and stop-word file reading, against the line-by-line oracle reader."""

import numpy as np
import pytest

from oracles import line_vector_file

from metaner import vectors as vectors_module
from metaner.vectors import read_stopword_file, read_vector_file

# Exponents, signs, -0.0, 17 significant digits, a subnormal, tabs and runs
# of spaces, a form feed, trailing blanks, blank lines and a repeated word.
VARIED = (
    "alpha 1.5e-3 -2E+10 +0.25\n"
    "\n"
    "beta\t-0.0\t0.1000000000000000055511151231257827\t4.9e-324\n"
    "gamma   1.7976931348623157e308  -.5 \t 7.\n"
    "  \n"
    "delta 0.30000000000000004 2.2250738585072014e-308 1e-310   \n"
    "alpha 3 4 5\n"
    "eps 1\x0c2 3\n"
    "zeta 0.058673 -0.169781 0.142101"
)


def assert_same_vectors(got, expected):
    assert list(got) == list(expected)
    for word, vec in expected.items():
        assert got[word].dtype == np.float64
        assert got[word].shape == vec.shape
        assert got[word].tobytes() == vec.tobytes(), word


def write(tmp_path, text, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestAgainstOracle:
    def test_varied_formats_read_by_numpy(self, tmp_path, monkeypatch):
        path = write(tmp_path, VARIED)
        expected = line_vector_file(path)

        def unexpected(path):
            raise AssertionError("fell back to the line reader")

        monkeypatch.setattr(vectors_module, "_read_vector_lines", unexpected)
        assert_same_vectors(read_vector_file(path), expected)

    def test_underscore_digits_read_as_float_reads_them(self, tmp_path):
        # float("1_0") is 10.0 and numpy rejects it, so this file takes the
        # line reader, which must accept it as it always did.
        path = write(tmp_path, VARIED.replace("-.5", "1_0"))
        expected = line_vector_file(path)
        assert expected["gamma"][1] == 10.0
        assert_same_vectors(read_vector_file(path), expected)

    def test_random_values_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((50, 7)) * 10.0 ** rng.integers(-300, 300, (50, 7))
        lines = []
        for i, row in enumerate(values):
            fmt = ("{!r}", "{:.6f}", "{:.17g}", "{:e}")[i % 4]
            lines.append(f"w{i} " + " ".join(fmt.format(float(x)) for x in row))
        path = write(tmp_path, "\n".join(lines) + "\n")
        assert_same_vectors(read_vector_file(path), line_vector_file(path))

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("w3 1.0 x2 3.0", "bad float"),
            ("w3 1.0 2.0", "has dim 2"),
            ("w3 1.0 2.0 3.0 4.0", "has dim 4"),
            ("w3 1.0 nan 3.0", "non-finite"),
            ("w3 1.0 -inf 3.0", "non-finite"),
            ("w3 1.0 1e400 3.0", "non-finite"),
            ("w3", "expected 'word v1 v2 ...'"),
        ],
    )
    def test_errors_match_oracle_and_name_line(self, tmp_path, bad_line, message):
        # Two blank lines come first, so the file line is not the row number.
        text = "\n\nw1 0.1 0.2 0.3\nw2 0.4 0.5 0.6\n" + bad_line + "\nw4 0.7 0.8 0.9\n"
        path = write(tmp_path, text)
        with pytest.raises(ValueError) as expected:
            line_vector_file(path)
        with pytest.raises(ValueError) as got:
            read_vector_file(path)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"{path}:5: ")
        assert message in str(got.value)

    def test_first_row_word_only_named(self, tmp_path):
        path = write(tmp_path, "\nw1\nw2\n")
        with pytest.raises(ValueError, match=f"{path}:2: expected 'word"):
            read_vector_file(path)

    @pytest.mark.parametrize("text", ["", "\n\n  \n"])
    def test_empty_file_gives_empty_dict(self, tmp_path, text):
        path = write(tmp_path, text)
        assert read_vector_file(path) == {} == line_vector_file(path)


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as if it had none."""

    def test_vector_file(self, tmp_path):
        plain = write(tmp_path, VARIED, "plain.txt")
        marked = tmp_path / "marked.txt"
        marked.write_text(VARIED, encoding="utf-8-sig")
        assert_same_vectors(read_vector_file(marked), read_vector_file(plain))

    def test_stopword_file(self, tmp_path):
        marked = tmp_path / "stop.txt"
        marked.write_text("a\nthe\n", encoding="utf-8-sig")
        assert read_stopword_file(marked) == {"a", "the"}

    def test_not_utf8_still_names_its_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"\xef\xbb\xbfw1 0.1 0.2\nw2 0.3 0.4\nw\xff3 0.5 0.6\n")
        with pytest.raises(ValueError, match=f"{path}:3: not UTF-8"):
            read_vector_file(path)


class TestNotUtf8:
    def test_vector_file_names_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"w1 0.1 0.2\nw2 0.3 0.4\nw\xff3 0.5 0.6\n")
        with pytest.raises(ValueError, match=f"{path}:3: not UTF-8"):
            read_vector_file(path)

    def test_stopword_file_names_line(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"a\nthe\n\xffn\n")
        with pytest.raises(ValueError, match=f"{path}:3: not UTF-8"):
            read_stopword_file(path)

    def test_bad_byte_past_the_first_chunk(self, tmp_path):
        path = tmp_path / "vectors.txt"
        lines = [f"w{i} 0.5 0.25".encode() for i in range(2000)]
        lines[1500] = b"\xc3\x28 0.5 0.25"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=f"{path}:1501: not UTF-8"):
            read_vector_file(path)
