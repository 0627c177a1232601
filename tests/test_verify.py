import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from collatzkit import (DigestMismatchError, InvalidTargetsError, Limits,
                        ShortcutUnsoundError, VerificationJob,
                        build_two_power_family, detect_cycle_from,
                        load_checkpoint, parse_triplet, resume,
                        save_checkpoint, verify, verify_range)
from collatzkit.core import PLUS, Triplet
from collatzkit.dynamics import Cycle
from collatzkit.verify import (_sieve_applies, build_sieve,
                               checkpoint_to_json_dict, job_digest)

T10128 = parse_triplet("10:12:8:+")
T231 = parse_triplet("2:3:1:+")
OMEGA4 = detect_cycle_from(T10128, 4)
OMEGA1 = detect_cycle_from(T231, 1)


T3241 = parse_triplet("3:4:1:-")
T8124 = parse_triplet("8:12:4:+")
TARGETS = {
    T231: (OMEGA1,),
    T10128: (OMEGA4,),
    T3241: (detect_cycle_from(T3241, 1), detect_cycle_from(T3241, 7)),
    T8124: (detect_cycle_from(T8124, 1), detect_cycle_from(T8124, 67)),
}


def job(t, lo, hi, targets, **kw):
    return VerificationJob(triplet=t, lo=lo, hi=hi, targets=targets, **kw)


def report_bytes(cp) -> str:
    """The deterministic part of a checkpoint (all but the timings)."""
    doc = checkpoint_to_json_dict(cp)
    del doc["wall_time"], doc["throughput"]
    return json.dumps(doc)


def assert_sieve_keeps_report(j, workers=1):
    """verify_range with its sieve against the same scan with no table."""
    sieved = verify_range(j, workers=workers)
    with mock.patch.object(verify, "build_sieve", lambda t: None):
        plain = verify_range(j, workers=1)
    assert report_bytes(sieved) == report_bytes(plain)
    return sieved


def sieved_by_rule(t: Triplet, r: int, k: int) -> bool:
    """The sieve rule evaluated directly on one residue r mod d^k."""
    v, o = r, 0
    for j in range(1, k + 1):
        res = v % t.d
        if res:
            o += 1
            v = (t.alpha * v + t.beta * (res if t.kappa == PLUS else t.d - res)) // t.d
        else:
            v //= t.d
        if t.alpha ** o <= t.d ** j and v < r:
            return True
    return False


class TestVerifyRange:
    def test_two_power_range_small(self):
        cp = verify_range(job(T10128, 1, 10**5, (OMEGA4,)), workers=1)
        assert cp.exceptions == ()
        assert cp.verified_frontier == 10**5
        assert cp.seeds_scanned == 10**5

    def test_classical_range_small(self):
        cp = verify_range(job(T231, 1, 10**5, (OMEGA1,)), workers=1)
        assert cp.exceptions == ()
        assert cp.verified_frontier == 10**5

    def test_shortcut_equivalence(self):
        for t, target in ((T10128, OMEGA4), (T231, OMEGA1)):
            on = verify_range(job(t, 1, 10**5, (target,)), workers=1)
            off = verify_range(job(t, 1, 10**5, (target,),
                                   below_frontier_shortcut=False), workers=1)
            assert on.exceptions == off.exceptions == ()

    def test_schedule_independence(self):
        runs = [
            verify_range(job(T10128, 1, 30000, (OMEGA4,), chunk_size=30000), workers=1),
            verify_range(job(T10128, 1, 30000, (OMEGA4,), chunk_size=1024), workers=1),
            verify_range(job(T10128, 1, 30000, (OMEGA4,), chunk_size=4096), workers=2),
        ]
        assert all(r.exceptions == runs[0].exceptions for r in runs)
        assert all(r.verified_frontier == runs[0].verified_frontier for r in runs)

    def test_exceptions_recorded_and_frontier(self):
        # under severe caps the wandering orbits of this triplet get recorded
        t = parse_triplet("3:8:19:+")
        targets = tuple(detect_cycle_from(t, m) for m in (1, 2, 19, 38))
        cp = verify_range(job(t, 1, 200, targets,
                              limits=Limits(max_steps=64, max_value=10**9),
                              below_frontier_shortcut=False), workers=1)
        assert cp.exceptions, "expected undecided seeds at these caps"
        assert cp.verified_frontier == cp.exceptions[0][0] - 1
        statuses = {s for _n, s in cp.exceptions}
        assert statuses <= {"step_cap", "value_cap"}
        again = verify_range(job(t, 1, 200, targets,
                                 limits=Limits(max_steps=64, max_value=10**9),
                                 below_frontier_shortcut=False), workers=1)
        assert again.exceptions == cp.exceptions

    def test_minus_residue_triplet(self):
        t = parse_triplet("3:4:1:-")
        targets = (detect_cycle_from(t, 1), detect_cycle_from(t, 7))
        cp = verify_range(job(t, 1, 10**4, targets), workers=1)
        assert cp.exceptions == ()
        off = verify_range(job(t, 1, 10**4, targets,
                               below_frontier_shortcut=False), workers=1)
        assert off.exceptions == ()

    def test_non_target_cycle_shows_up_as_exception(self):
        t = parse_triplet("8:12:4:+")
        omega1 = detect_cycle_from(t, 1)
        omega67 = detect_cycle_from(t, 67)
        cp = verify_range(job(t, 1, 100, (omega1,),
                              limits=Limits(max_steps=10**4)), workers=1)
        assert (67, "step_cap") in cp.exceptions
        assert cp.verified_frontier < 67
        both = verify_range(job(t, 1, 100, (omega1, omega67),
                                limits=Limits(max_steps=10**4)), workers=1)
        assert both.exceptions == ()

    def test_empty_targets_rejected(self):
        with pytest.raises(InvalidTargetsError):
            verify_range(job(T10128, 1, 100, ()))

    def test_fake_target_rejected(self):
        fake = Cycle(elements=(5, 7), omega=5, length=2, kbar=2, max_elem=7)
        with pytest.raises(InvalidTargetsError):
            verify_range(job(T10128, 1, 100, (fake,)))

    def test_wrong_minimum_rejected(self):
        rotated = Cycle(elements=(8, 16, 24, 32, 40, 4), omega=8, length=6,
                        kbar=5, max_elem=40)
        with pytest.raises(InvalidTargetsError):
            verify_range(job(T10128, 1, 100, (rotated,)))

    def test_shortcut_needs_covered_prefix(self):
        with pytest.raises(ShortcutUnsoundError):
            verify_range(job(T10128, 1000, 2000, (OMEGA4,)))
        # fine without the shortcut
        cp = verify_range(job(T10128, 1000, 2000, (OMEGA4,),
                              below_frontier_shortcut=False), workers=1)
        assert cp.exceptions == ()
        # and fine when the prefix is covered
        cp = verify_range(job(T10128, 1000, 2000, (OMEGA4,),
                              prefix_verified_to=999), workers=1)
        assert cp.exceptions == ()

    def test_seed_inside_target_cycle(self):
        cp = verify_range(job(T10128, 4, 40, (OMEGA4,),
                              below_frontier_shortcut=False), workers=1)
        assert cp.exceptions == ()


class TestResidueSieve:
    def test_depth_is_largest_under_the_cap(self):
        classical, two_power = build_sieve(T231), build_sieve(T10128)
        assert (classical.depth, classical.modulus) == (16, 1 << 16)
        assert (two_power.depth, two_power.modulus) == (4, 10**4)
        assert build_sieve(Triplet(65537, 65538, 65536, 1)) is None

    def test_survivor_count_classical(self):
        # 3.2% of the classes mod 2^16 still need a scan
        assert len(build_sieve(T231).survivors) == 2116

    @pytest.mark.parametrize("t", [T10128, T8124, T3241], ids=str)
    def test_survivors_follow_the_rule(self, t):
        sieve = build_sieve(t)
        expected = [r for r in range(sieve.modulus)
                    if not sieved_by_rule(t, r, sieve.depth)]
        assert list(sieve.survivors) == expected

    @pytest.mark.parametrize("t, lo, hi, chunk, workers", [
        (T231, 1, 200_000, 1 << 16, 1),
        (T231, 1, 200_000, 30_001, 2),
        (T10128, 1, 100_000, 3_001, 1),
        (T3241, 1, 100_000, 10_000, 1),
        (T231, 123_457, 300_000, 50_000, 1),  # resumed, lo not aligned
        (T10128, 54_322, 90_000, 7_777, 1),
    ], ids=str)
    def test_report_unchanged(self, t, lo, hi, chunk, workers):
        j = job(t, lo, hi, TARGETS[t], chunk_size=chunk, prefix_verified_to=lo - 1)
        assert _sieve_applies(build_sieve(t), hi, j.limits.max_steps, j.limits.max_value)
        cp = assert_sieve_keeps_report(j, workers)
        assert cp.exceptions == () and cp.seeds_scanned == hi - lo + 1

    @pytest.mark.parametrize("lo, chunk", [(1, 1 << 16), (1, 33), (67, 1 << 16)])
    def test_non_target_cycle_kept(self, lo, chunk):
        # chunk 33 and lo 67 start a chunk on the exception seed itself
        cp = assert_sieve_keeps_report(
            job(T8124, lo, 100, TARGETS[T8124][:1], limits=Limits(max_steps=10**4),
                chunk_size=chunk, prefix_verified_to=lo - 1))
        assert (67, "step_cap") in cp.exceptions

    @pytest.mark.parametrize("t", [T231, T10128, T3241], ids=str)
    def test_sieved_seeds_descend_under_the_peak_bound(self, t):
        sieve = build_sieve(t)
        step = t.step_function()
        survivors = set(sieve.survivors)
        for block in (0, 1, 10**6):
            bound = sieve.peak_coeff * block + sieve.peak_const
            for r in range(1, sieve.modulus, 7):
                if r in survivors:
                    continue
                n = block * sieve.modulus + r
                v, steps = step(n), 1
                while v >= n:
                    assert v <= bound
                    v, steps = step(v), steps + 1
                assert v <= bound and steps <= sieve.depth

    def test_fallback_below_depth_steps(self):
        sieve = build_sieve(T231)
        limits = Limits(max_steps=sieve.depth - 1)
        assert not _sieve_applies(sieve, 5000, limits.max_steps, limits.max_value)
        cp = assert_sieve_keeps_report(job(T231, 1, 5000, (OMEGA1,), limits=limits,
                                           chunk_size=999))
        assert {s for _n, s in cp.exceptions} == {"step_cap"}

    def test_fallback_per_chunk_under_small_value_cap(self):
        # the cap admits the sieve for chunks below d^k only
        sieve = build_sieve(T231)
        limits = Limits(max_value=sieve.peak_const)
        assert _sieve_applies(sieve, sieve.modulus - 1, limits.max_steps, limits.max_value)
        assert not _sieve_applies(sieve, sieve.modulus, limits.max_steps, limits.max_value)
        cp = assert_sieve_keeps_report(job(T231, 1, 3 * sieve.modulus, (OMEGA1,),
                                           limits=limits, chunk_size=20_000))
        assert {s for _n, s in cp.exceptions} == {"value_cap"}

    @settings(max_examples=100, deadline=None)
    @given(t=st.sampled_from(sorted(TARGETS, key=str)),
           lo=st.integers(1, 300_000), size=st.integers(0, 1500),
           chunk=st.integers(1, 2000), max_steps=st.integers(1, 200),
           max_value=st.integers(3, 40).map(lambda e: 2**e))
    def test_report_unchanged_property(self, t, lo, size, chunk, max_steps, max_value):
        assert_sieve_keeps_report(job(
            t, lo, lo + size, TARGETS[t], chunk_size=chunk, prefix_verified_to=lo - 1,
            limits=Limits(max_steps=max_steps, max_value=max_value)))


class TestCheckpoints:
    def test_roundtrip_and_resume_equals_oneshot(self, tmp_path):
        cp = verify_range(job(T10128, 1, 50000, (OMEGA4,)), workers=1)
        path = tmp_path / "cp.json"
        save_checkpoint(cp, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.digest == cp.digest
        assert loaded.exceptions == cp.exceptions
        assert loaded.verified_frontier == cp.verified_frontier
        extended = resume(loaded, 10**5, workers=1)
        oneshot = verify_range(job(T10128, 1, 10**5, (OMEGA4,)), workers=1)
        assert extended.exceptions == oneshot.exceptions
        assert extended.verified_frontier == oneshot.verified_frontier
        assert extended.seeds_scanned == 10**5

    def test_digest_detects_tampering(self, tmp_path):
        cp = verify_range(job(T231, 1, 1000, (OMEGA1,)), workers=1)
        path = tmp_path / "cp.json"
        save_checkpoint(cp, str(path))
        import json
        doc = json.loads(path.read_text())
        doc["job"]["triplet"]["alpha"] = "5"
        doc["job"]["triplet"]["beta"] = "3"
        path.write_text(json.dumps(doc))
        tampered = load_checkpoint(str(path))
        with pytest.raises(DigestMismatchError):
            resume(tampered, 2000)

    def test_resume_rejects_empty_extension(self):
        cp = verify_range(job(T231, 1, 1000, (OMEGA1,)), workers=1)
        with pytest.raises(InvalidTargetsError):
            resume(cp, 1000)

    def test_digest_stable_across_extension(self):
        cp = verify_range(job(T231, 1, 1000, (OMEGA1,)), workers=1)
        cp2 = resume(cp, 2000, workers=1)
        assert cp2.digest == cp.digest
        assert cp2.job.lo == 1 and cp2.job.hi == 2000

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "cp.json"
        save_checkpoint(verify_range(job(T231, 1, 1000, (OMEGA1,)), workers=1), str(path))
        before = path.read_bytes()

        def failing_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(verify.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(verify_range(job(T231, 1, 2000, (OMEGA1,)), workers=1), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cp.json"]

    def test_checkpoint_from_earlier_release_resumes(self, tmp_path):
        # written by the code before the residue sieve existed
        path = tmp_path / "cp.json"
        path.write_text(
            '{"version": 1, "job": {"triplet": {"d": "8", "alpha": "12", "beta": "4", '
            '"kappa": "+"}, "lo": "1", "hi": "100", "targets": [{"omega": "1", '
            '"length": 4, "kbar": 3, "max_elem": "8", "elements": ["1", "2", "4", "8"]}], '
            '"max_steps": "10000", "max_value": "1000000000000000000000000000000", '
            '"chunk_size": 30, "below_frontier_shortcut": true, "prefix_verified_to": "0"}, '
            '"digest": "bd0c247856327c2169fcefd8b751264d5e3b7cd9c55f8a620072a1cac3c4cd89", '
            '"verified_frontier": "66", "exceptions": [["67", "step_cap"]], '
            '"seeds_scanned": "100", "wall_time": 0.0013941050001449184, '
            '"throughput": 71730.60851916097}')
        extended = resume(load_checkpoint(str(path)), 5000, workers=1)
        oneshot = verify_range(job(T8124, 1, 5000, TARGETS[T8124][:1], chunk_size=30,
                                   limits=Limits(max_steps=10**4)), workers=1)
        assert extended.digest == oneshot.digest
        assert extended.verified_frontier == oneshot.verified_frontier == 66
        assert extended.exceptions == oneshot.exceptions
        assert extended.seeds_scanned == oneshot.seeds_scanned == 5000

    def test_resume_past_exceptions_counts_each_seed_once(self):
        targets = TARGETS[T8124][:1]  # leaves 67 and its class undecided
        cp = verify_range(job(T8124, 1, 100, targets), workers=1)
        assert cp.verified_frontier == 66
        for hi in (300, 1000):
            cp = resume(cp, hi, workers=1)
            oneshot = verify_range(job(T8124, 1, hi, targets), workers=1)
            assert cp.exceptions == oneshot.exceptions
            assert cp.seeds_scanned == oneshot.seeds_scanned == hi
        late = verify_range(job(T8124, 50, 100, targets, prefix_verified_to=49), workers=1)
        assert resume(late, 1000, workers=1).seeds_scanned == 951

    def test_digest_ignores_scheduling_fields(self):
        a = job(T231, 1, 1000, (OMEGA1,), chunk_size=100)
        b = job(T231, 1, 1000, (OMEGA1,), chunk_size=7777)
        assert job_digest(a) == job_digest(b)
        c = job(T231, 1, 1000, (OMEGA1,), below_frontier_shortcut=False)
        assert job_digest(a) != job_digest(c)


def test_thread_env_variable(monkeypatch):
    from collatzkit.verify import _worker_count
    monkeypatch.setenv("COLLATZKIT_THREADS", "3")
    assert _worker_count(None) == 3
    assert _worker_count(2) == 2
    monkeypatch.setenv("COLLATZKIT_THREADS", "junk")
    assert _worker_count(None) >= 1


def test_two_power_family_spot_checks():
    # desk-scale evidence: all two-power triplets with p <= 8 verify on 1..1e5
    for p in range(0, 9):
        for q in range(0, p + 1):
            fam = build_two_power_family(p, q)
            cp = verify_range(
                VerificationJob(triplet=fam.triplet, lo=1, hi=10**5,
                                targets=fam.cycles), workers=1)
            assert cp.exceptions == (), f"(p,q)=({p},{q})"
