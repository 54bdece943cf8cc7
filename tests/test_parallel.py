import threading
from concurrent.futures import ThreadPoolExecutor

from deathlab import Constant, _parallel, extinction_time_batch, first_passage_batch, implosion_batch, make_stream


def test_no_pool_opens_inside_a_pool(monkeypatch):
    # a pool counts as open from its construction to its shutdown; a task
    # that opened one of its own would make two open at once
    lock = threading.Lock()
    opened, open_now, most = [], [0], [0]

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            with lock:
                opened.append(self)
                open_now[0] += 1
                most[0] = max(most[0], open_now[0])
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            with lock:
                open_now[0] -= 1

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(_parallel, "CHUNK_SIZE", 100)  # three chunks of process runs
    rng = make_stream(31, 0)
    implosion_batch(1.0, 200, 2000, rng.substream(0), workers=2, levels=[10, 200])
    extinction_time_batch(20, Constant(0.3), rng.substream(1), 300, workers=2)
    first_passage_batch(3, Constant(0.3), rng.substream(2), 300, workers=2)
    assert most[0] == 1 and open_now[0] == 0
    assert len(opened) == 3  # one pool per batch
