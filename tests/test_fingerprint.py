"""Machine fingerprints: the provenance stamped into bench baselines."""

from __future__ import annotations

from repro.tune.fingerprint import (
    fingerprint_digest,
    fingerprint_mismatches,
    machine_fingerprint,
)


class TestFingerprint:
    def test_fields_present_and_digest_stable(self):
        fp = machine_fingerprint()
        assert set(fp) >= {"cpu_count", "platform", "machine", "python", "numpy"}
        assert fingerprint_digest(fp) == fingerprint_digest(machine_fingerprint())

    def test_mismatches_name_both_values(self):
        fp = machine_fingerprint()
        other = dict(fp, numpy="0.0.1")
        (line,) = fingerprint_mismatches(other, fp)
        assert "numpy" in line and "0.0.1" in line

    def test_missing_stored_field_is_tolerated(self):
        # Schema growth: an old baseline without a newer field still matches.
        fp = machine_fingerprint()
        stored = {k: v for k, v in fp.items() if k != "compiler"}
        assert fingerprint_mismatches(stored, fp) == ()


class TestBenchPayload:
    def test_bench_payload_carries_fingerprint_and_row_workers(self):
        from repro.cli import _bench_payload

        payload = _bench_payload(
            signature="(1: 1)", n=2048, dtype=None, workers=None, repeat=1, seed=0
        )
        assert payload["workers"] is None  # requested, not resolved
        assert payload["fingerprint"] == machine_fingerprint()
        by_backend = {row["backend"]: row for row in payload["results"]}
        assert by_backend["serial"]["workers"] == 1
        assert by_backend["process"]["workers"] >= 1
