"""The characteristic-polynomial store: one per run, passed explicitly.

A CharpolyCache holds every polynomial a run has computed or loaded,
the engine that computes the missing ones, and optionally the file it
loads from and flushes to.  Callers hand it down to the slope layer,
which without one computes every polynomial afresh.

On disk it is one JSON object per line, so the file can be streamed
and appended to; coefficients travel as decimal strings because they
overflow 64 bits around weight 20.  Every record carries a sha256
digest of its payload: a record that fails to re-parse, re-verify, or
match the schema version is dropped, listed in the store's rejects,
and the polynomial is simply recomputed.  Writes go through a temporary
file and os.replace, so readers never see a half-written cache.
"""

import hashlib
import json
import os
import tempfile
from typing import NamedTuple

from .exact import IntPolynomial

SCHEMA_VERSION = 1
ENGINES = ("modsym", "trace", "both")
_FIELDS = ("schema", "p", "level", "weight", "operator", "coeffs", "engine")


def operator_label(p, level):
    """Hecke operator name at this level: U when p divides it, T otherwise."""
    return "U" if level % p == 0 else "T"


class CacheRecord(NamedTuple):
    p: int
    level: int
    weight: int
    operator: str  # "T" or "U"
    coeffs: tuple  # integer coefficients of det(1 - TX), constant first, untrimmed
    engine: str  # "modsym" or "trace"

    @property
    def key(self):
        return (self.p, self.level, self.weight, self.operator, self.engine)

    def payload(self):
        return {
            "schema": SCHEMA_VERSION,
            "p": self.p,
            "level": self.level,
            "weight": self.weight,
            "operator": self.operator,
            "coeffs": [str(c) for c in self.coeffs],
            "engine": self.engine,
        }

    def digest(self):
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    def to_line(self):
        body = self.payload()
        body["digest"] = self.digest()
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_line(cls, line):
        """Parse and verify one cache line; ValueError describes any defect."""
        try:
            body = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError("unparsable record (%s)" % exc) from None
        if not isinstance(body, dict):
            raise ValueError("record is not an object")
        if body.get("schema") != SCHEMA_VERSION:
            raise ValueError("schema version %r, expected %d"
                             % (body.get("schema"), SCHEMA_VERSION))
        missing = [f for f in _FIELDS + ("digest",) if f not in body]
        if missing:
            raise ValueError("missing fields: %s" % ", ".join(missing))
        try:
            coeffs = tuple(int(c) for c in body["coeffs"])
            rec = cls(int(body["p"]), int(body["level"]), int(body["weight"]),
                      str(body["operator"]), coeffs, str(body["engine"]))
        except (TypeError, ValueError):
            raise ValueError("malformed field value") from None
        if rec.digest() != body["digest"]:
            raise ValueError("digest mismatch")
        return rec


class CharpolyCache:
    """Map from (p, level, weight, operator, engine) to cached polynomials.

    engine picks how the slope layer computes a missing T_p polynomial:
    "modsym", "trace", or "both" (compute with each and insist they
    agree).  path=None keeps the cache purely in memory.  load() never
    raises on a damaged file: bad lines are collected in self.rejects for
    the caller to report, and the affected entries get recomputed on
    demand.  Used as a context manager, the store flushes on leaving the
    block, also on error.
    """

    def __init__(self, path=None, engine="modsym"):
        if engine not in ENGINES:
            raise ValueError("engine must be one of %r, got %r" % (ENGINES, engine))
        self.path = path
        self.engine = engine
        self.records = {}
        self.rejects = []  # (line number, reason) from the last load
        self.hits = 0
        self.misses = 0
        self._stored = None  # the records the file held at the last load or flush
        if path is not None:
            self.load()

    def load(self):
        self.rejects = []
        if self.path is None or not os.path.exists(self.path):
            return 0
        kept = 0
        stored = {}
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    line = raw.decode("ascii").strip()
                    if not line:
                        continue
                    rec = CacheRecord.from_line(line)
                except ValueError as exc:  # UnicodeDecodeError included
                    self.rejects.append((lineno, str(exc)))
                    continue
                stored[rec.key] = rec
                kept += 1
        self.records.update(stored)
        self._stored = stored
        return kept

    def get(self, p, level, weight, engine):
        rec = self.records.get((p, level, weight, operator_label(p, level), engine))
        if rec is None:
            return None
        return IntPolynomial(rec.coeffs)

    def put(self, p, level, weight, engine, poly):
        rec = CacheRecord(p, level, weight, operator_label(p, level),
                          tuple(poly.coeffs), engine)
        self.records[rec.key] = rec
        return rec

    def fetch_or_compute(self, p, level, weight, engine, compute):
        got = self.get(p, level, weight, engine)
        if got is not None:
            self.hits += 1
            return got
        self.misses += 1
        poly = compute()
        self.put(p, level, weight, engine, poly)
        return poly

    def merge(self, records):
        for rec in records:
            self.records[rec.key] = rec

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.flush()
        return False

    def flush(self):
        """Rewrite the backing file atomically.

        A no-op for in-memory caches, and when the file already holds
        exactly these records and its last load rejected nothing.
        """
        if self.path is None:
            return
        if (self.records == self._stored and not self.rejects
                and os.path.exists(self.path)):
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".cache-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                for key in sorted(self.records):
                    fh.write(self.records[key].to_line())
                    fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._stored = dict(self.records)
