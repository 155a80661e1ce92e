"""ResultCache under concurrent *processes*.

The cache's only cross-process synchronization is the atomicity of
``os.replace``: writers may race each other and readers may race a
replace, and the contract is simply that every read returns either a
complete valid entry or a miss — never an exception, never a torn
payload — and that racing same-key writers leave exactly one valid
entry behind.
"""

import json
import multiprocessing

import pytest

from repro.runtime.cache import ResultCache

KEY = "ab" * 32
PAYLOAD_A = {"writer": "a", "lut_count": 4, "pad": "x" * 4096}
PAYLOAD_B = {"writer": "b", "lut_count": 9, "pad": "y" * 4096}


def hammer_puts(root, payload, rounds, barrier, prime=False):
    cache = ResultCache(root, memory_limit=0)
    if prime:
        cache.put(KEY, payload)  # present before any reader starts
    barrier.wait()
    for _ in range(rounds):
        cache.put(KEY, payload)


def hammer_gets(root, rounds, barrier, out):
    cache = ResultCache(root, memory_limit=0)
    barrier.wait()
    misses = hits = 0
    try:
        for _ in range(rounds):
            record = cache.get(KEY)
            if record is None:
                misses += 1
            else:
                # A hit must be one of the two complete payloads —
                # a torn read would produce neither.
                assert record in (PAYLOAD_A, PAYLOAD_B)
                hits += 1
    except Exception as exc:  # noqa: BLE001 — report, don't hang
        out.put(("error", repr(exc)))
        return
    out.put(("ok", {"hits": hits, "misses": misses}))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
class TestConcurrentProcesses:
    def test_same_key_writers_converge_to_one_valid_entry(self,
                                                          tmp_path):
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(target=hammer_puts,
                        args=(str(tmp_path), payload, 200, barrier))
            for payload in (PAYLOAD_A, PAYLOAD_B)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=60.0)
            assert proc.exitcode == 0
        # Exactly one entry file, no temp debris, valid JSON, and it is
        # one of the two racing payloads in full.
        entries = [p for p in tmp_path.rglob("*.json")]
        assert len(entries) == 1
        entry = json.loads(entries[0].read_text())
        assert entry["payload"] in (PAYLOAD_A, PAYLOAD_B)
        assert not list(tmp_path.rglob("*.tmp*"))
        cache = ResultCache(tmp_path, memory_limit=0)
        assert cache.get(KEY) == entry["payload"]
        assert cache.corrupt == 0

    def test_read_during_replace_is_miss_or_hit_never_crash(self,
                                                            tmp_path):
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(3)
        out = ctx.Queue()
        # The writer stores the entry once before the barrier, so
        # every read races a replace of an entry that is present: a
        # descheduled writer cannot leave the readers only misses.
        writer = ctx.Process(target=hammer_puts,
                             args=(str(tmp_path), PAYLOAD_A, 300,
                                   barrier, True))
        readers = [
            ctx.Process(target=hammer_gets,
                        args=(str(tmp_path), 300, barrier, out))
            for _ in range(2)
        ]
        writer.start()
        for proc in readers:
            proc.start()
        verdicts = [out.get(timeout=60.0) for _ in readers]
        writer.join(timeout=60.0)
        for proc in readers:
            proc.join(timeout=60.0)
        assert writer.exitcode == 0
        for status, detail in verdicts:
            assert status == "ok", detail
        # At least one read raced into an actual hit (the entry is
        # present from before the first read).
        assert sum(v[1]["hits"] for v in verdicts) > 0

    def test_reader_before_first_write_is_a_plain_miss(self, tmp_path):
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(1)
        out = ctx.Queue()
        reader = ctx.Process(target=hammer_gets,
                             args=(str(tmp_path), 5, barrier, out))
        reader.start()
        status, detail = out.get(timeout=30.0)
        reader.join(timeout=30.0)
        assert status == "ok"
        assert detail["misses"] == 5


class TestSingleProcessReplaceRace:
    def test_entry_unlinked_by_another_process_is_plain_miss(
            self, tmp_path):
        # Deterministic edge of the replace race: the entry vanishes
        # (a `repro cache clear` elsewhere) between put and get.
        cache = ResultCache(tmp_path, memory_limit=0)
        cache.put(KEY, PAYLOAD_A)
        cache._path(KEY).unlink()
        assert cache.get(KEY) is None  # miss, not FileNotFoundError
        assert cache.corrupt == 0      # absence is not corruption
        cache.put(KEY, PAYLOAD_A)
        assert cache.get(KEY) == PAYLOAD_A

    def test_half_written_bytes_never_served(self, tmp_path):
        # What os.replace protects against, written out by hand: a torn
        # entry (as if a writer died mid-write without the temp-file
        # dance) must read as a miss and be dropped, not parsed.
        cache = ResultCache(tmp_path, memory_limit=0)
        cache.put(KEY, PAYLOAD_A)
        path = cache._path(KEY)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        assert cache.get(KEY) is None
        assert cache.corrupt == 1
        assert not path.exists()


