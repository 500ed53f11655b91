"""Tests for the line-oriented charpoly cache.

The cache stores verified results only; anything it cannot verify it must
drop (and report) rather than serve.  Math never depends on it.
"""

import json
import os
import pickle

import pytest

from heckeslopes.cache import (
    SCHEMA_VERSION,
    CacheRecord,
    CharpolyCache,
    operator_label,
)
from heckeslopes.exact import IntPolynomial


def sample_record():
    # coefficients big enough to overflow any fixed-width integer, padded
    # with zeros to raw degree 22 = dim S_24(Gamma_0(11))
    return CacheRecord(2, 11, 24, "T", (1, 1080, 2 ** 94 + 7, -(10 ** 40)) + (0,) * 19,
                       "modsym")


def cache_roundtrip(record, path):
    """Write record into the cache at path and read it back from disk.

    Returns the reloaded record, or None when the stored line fails
    verification.
    """
    cache = CharpolyCache(path)
    cache.records[record.key] = record
    cache.flush()
    return CharpolyCache(path).records.get(record.key)


def test_operator_label():
    assert operator_label(2, 11) == "T"
    assert operator_label(11, 22) == "U"
    assert operator_label(2, 2) == "U"


def test_record_roundtrip_is_exact():
    rec = sample_record()
    back = CacheRecord.from_line(rec.to_line())
    assert back == rec
    assert back.coeffs == rec.coeffs  # arbitrary-precision ints survive
    # survey workers send records between processes, and a record is read-only
    assert pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(AttributeError):
        rec.engine = "trace"


def test_record_digest_detects_tampering():
    rec = sample_record()
    body = json.loads(rec.to_line())
    body["coeffs"][1] = "1081"
    with pytest.raises(ValueError, match="digest mismatch"):
        CacheRecord.from_line(json.dumps(body))


def test_record_rejects_wrong_schema():
    body = json.loads(sample_record().to_line())
    body["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema version"):
        CacheRecord.from_line(json.dumps(body))


def test_record_rejects_missing_fields_and_garbage():
    body = json.loads(sample_record().to_line())
    del body["coeffs"]
    with pytest.raises(ValueError, match="missing fields"):
        CacheRecord.from_line(json.dumps(body))
    with pytest.raises(ValueError, match="unparsable"):
        CacheRecord.from_line("{not json")
    with pytest.raises(ValueError, match="not an object"):
        CacheRecord.from_line("[1, 2, 3]")


def test_record_rejects_malformed_values():
    rec = sample_record()
    body = json.loads(rec.to_line())
    body["coeffs"] = ["one", "two"]
    with pytest.raises(ValueError, match="malformed"):
        CacheRecord.from_line(json.dumps(body))


@pytest.mark.parametrize("fields, reason", [
    ((2, 1, 12, "T", (2, 24), "modsym"), r"coeffs start \[2\]"),
    ((2, 11, 4, "T", (1, -2), "modsym"), "raw degree 1; expected .* dim 2"),
    ((2, 11, 4, "T", (1, 0, 0, 0, 0), "modsym"), "raw degree 4; expected .* dim 2"),
    ((2, 11, 4, "U", (1, -2, -2), "modsym"), "operator 'U'"),
    ((2, 11, 4, "T", (1, -2, -2), "both"), "engine 'both'"),
    ((2, 1, 12, "T", (1, 24), "auto"), "engine 'auto'"),
    ((0, 11, 4, "T", (1, -2, -2), "modsym"), "p = 0"),  # no ZeroDivisionError
    ((4, 11, 4, "T", (1, -2, -2), "modsym"), "p = 4"),
    ((2, 0, 4, "U", (1,), "modsym"), "level 0"),
    ((2, 11, 3, "T", (1,), "modsym"), "weight 3"),
], ids=["c0=2", "degree-below-dim", "degree-above-dim", "U-at-p-prime-to-level",
        "engine-both", "engine-auto", "p=0", "p=4", "level=0", "odd-weight"])
def test_record_certificate_rejects_a_digest_valid_forgery(fields, reason):
    # each line carries a valid digest, so only the certificate can refuse it
    with pytest.raises(ValueError, match=reason):
        CacheRecord.from_line(CacheRecord(*fields).to_line())


def test_cache_file_roundtrip(tmp_path):
    path = str(tmp_path / "c.jsonl")
    rec = sample_record()
    assert cache_roundtrip(rec, path) == rec
    # corrupt the stored line: the reload must drop it, not serve it
    with open(path) as fh:
        line = fh.read()
    with open(path, "w") as fh:
        fh.write(line.replace("1080", "1090"))
    fresh = CharpolyCache(path)
    assert fresh.records.get(rec.key) is None
    assert any("digest mismatch" in reason for _, reason in fresh.rejects)
    # writing through the cache again heals the file
    assert cache_roundtrip(CacheRecord(3, 5, 4, "T", (1, -2), "trace"),
                           path) is not None
    assert CharpolyCache(path).rejects == []


def test_load_tolerates_truncation_and_junk(tmp_path, capsys):
    path = str(tmp_path / "c.jsonl")
    good = sample_record()
    with open(path, "w") as fh:
        fh.write(good.to_line() + "\n")
        fh.write("garbage line\n")
        fh.write(good.to_line()[: len(good.to_line()) // 2] + "\n")
        fh.write("\n")  # blank lines are skipped silently
    cache = CharpolyCache(path)
    assert good.key in cache.records
    assert len(cache.rejects) == 2
    linenos = [ln for ln, _ in cache.rejects]
    assert linenos == [2, 3]
    # the store lists its rejects and leaves reporting them to the caller
    assert capsys.readouterr().err == ""


def test_load_rejects_non_ascii_lines(tmp_path):
    path = str(tmp_path / "c.jsonl")
    good = sample_record()
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe junk\n")
        fh.write(good.to_line().encode("ascii") + b"\n")
    cache = CharpolyCache(path)
    assert [ln for ln, _ in cache.rejects] == [1]
    assert list(cache.records) == [good.key]


def test_flush_is_atomic_and_sorted(tmp_path):
    path = str(tmp_path / "sub" / "c.jsonl")
    cache = CharpolyCache(path)
    cache.fetch_or_compute(3, 11, 4, "modsym", lambda: IntPolynomial([1, 2, 3]))
    cache.fetch_or_compute(2, 11, 4, "modsym", lambda: IntPolynomial([1, -2, -2]))
    cache.flush()
    # no stray temp files left behind
    assert os.listdir(os.path.dirname(path)) == ["c.jsonl"]
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2
    assert [json.loads(l)["p"] for l in lines] == [2, 3]
    # byte-identical rewrite
    CharpolyCache(path).flush()
    with open(path) as fh:
        assert fh.read().splitlines() == lines


def test_flush_leaves_an_unchanged_file_alone(tmp_path):
    path = str(tmp_path / "c.jsonl")
    with CharpolyCache(path) as cache:
        cache.fetch_or_compute(2, 1, 12, "modsym", lambda: IntPolynomial([1, 24]))
    before = os.stat(path)
    with CharpolyCache(path) as warm:
        assert warm.fetch_or_compute(2, 1, 12, "modsym", None) == IntPolynomial([1, 24])
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    # a new record is written
    with CharpolyCache(path) as warm:
        warm.fetch_or_compute(3, 1, 12, "modsym", lambda: IntPolynomial([1, -252]))
    assert len(CharpolyCache(path).records) == 2


def test_fetch_or_compute_counts_hits_and_misses(tmp_path):
    cache = CharpolyCache()
    assert cache.records == {}
    calls = []

    def compute():
        calls.append(1)
        return IntPolynomial([1, 24])

    out1 = cache.fetch_or_compute(2, 1, 12, "modsym", compute)
    out2 = cache.fetch_or_compute(2, 1, 12, "modsym", compute)
    assert out1 == out2 == IntPolynomial([1, 24])
    assert len(calls) == 1
    assert cache.hits == 1 and cache.misses == 1
    # same key but different engine is a distinct entry
    cache.fetch_or_compute(2, 1, 12, "trace", compute)
    assert len(calls) == 2


def test_store_block_flushes_on_exit(tmp_path):
    path = str(tmp_path / "c.jsonl")
    with CharpolyCache(path) as cache:
        cache.fetch_or_compute(2, 1, 12, "modsym", lambda: IntPolynomial([1, 24]))
    assert CharpolyCache(path).fetch_or_compute(2, 1, 12, "modsym", None) == IntPolynomial([1, 24])
    # an error inside the block still flushes what was computed before it
    with pytest.raises(ZeroDivisionError):
        with CharpolyCache(path) as cache:
            cache.fetch_or_compute(3, 1, 12, "modsym", lambda: IntPolynomial([1, -252]))
            cache.fetch_or_compute(5, 1, 12, "modsym", lambda: 1 // 0)
    assert len(CharpolyCache(path).records) == 2
    assert cache.misses == 2


def test_merge_overwrites_by_key():
    cache = CharpolyCache()
    a = CacheRecord(2, 11, 2, "T", (1, 2), "modsym")
    b = CacheRecord(2, 11, 2, "T", (1, 3), "modsym")
    cache.merge([a])
    cache.merge([b])
    assert cache.records[b.key] == b
