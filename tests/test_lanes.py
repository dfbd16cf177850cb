"""Two lanes give the bits of one: the decoder, the flood and the check
update run in two halves on two threads where a block is large, and every
output must equal the one-lane output byte for byte."""
import collections
import dataclasses
import importlib
import itertools
import os
import queue
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gfrma import config as C
from gfrma import harness as H
from gfrma import lanes
from gfrma import ldpc as L
from gfrma import pattern as P
from gfrma import phy
from gfrma import receiver as R

from test_trace_targets import _targets

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def lane_counts(monkeypatch):
    """Per lanes.each call, the function's qualified name and how many
    parts it ran; lanes._cpu_count reads 2, so that two lanes can run on a
    one-CPU host."""
    counts = []
    each = lanes.each

    def counting(fn, parts):
        counts.append((fn.__qualname__, len(parts)))
        return each(fn, parts)

    monkeypatch.setattr(lanes, "each", counting)
    monkeypatch.setattr(lanes, "_cpu_count", lambda: 2)
    return counts


def _both(monkeypatch, lane_counts, run):
    """run() with one lane, then with two wherever a block can be cut (the
    size constant at 0); returns the two results and the functions that ran
    in two parts in the second."""
    monkeypatch.setattr(lanes, "_MIN_SIZE", 10 ** 18)
    one = run()
    assert {n for _, n in lane_counts} <= {1}
    lane_counts.clear()
    monkeypatch.setattr(lanes, "_MIN_SIZE", 0)
    two = run()
    return one, two, {name.split(".")[0] for name, n in lane_counts
                      if n == 2}


def _outcome_bytes(out):
    """An outcome at full float precision, as _outcome_digest hashes it."""
    parts = [f"{out.iterations} {out.converged}".encode()]
    for arr in (out.decoded_bits, out.declared, out.q, out.mu_h, out.xi_h):
        arr = np.ascontiguousarray(arr)
        parts += [f"{arr.dtype.str}{arr.shape}".encode(), arr.tobytes()]
    return b"".join(parts)


def _view_bytes(views, count=6):
    """The arrays of the first `count` Iteration views, as bytes."""
    return [[view.n] + [np.ascontiguousarray(arr).tobytes()
                        for arr in view[1:]]
            for view in itertools.islice(views, count)]


@pytest.fixture(scope="module")
def desk():
    """DESK_CONFIG at master seed 1 and -7.0 dB: config, code, graph and
    trial 0's truth and received block."""
    base = dataclasses.replace(H.DESK_CONFIG, system_seed=1)
    pc = L.construct_parity_check(base.m, base.code_rate, base.d_v,
                                  base.system_seed)
    graph = P.build_access_graph(base)
    cfg = base.with_noise_variance(C.noise_variance_for_snr(
        base, C.db_to_linear(-7.0), H.expected_active_gains(base)))
    truth = phy.make_ground_truth(cfg, pc, 0)
    return cfg, pc, graph, truth, phy.superpose(cfg, truth, graph)


def _decode_and_views(cfg, y, graph, pc, **kwargs):
    return (_outcome_bytes(R.joint_decode(cfg, y, graph, pc, **kwargs)),
            _view_bytes(R.iterate(cfg, y, graph, pc, **kwargs)))


@pytest.mark.parametrize("mode", H.MODES)
def test_two_lanes_match_one_in_every_mode(desk, mode, monkeypatch,
                                           lane_counts):
    cfg, pc, graph, truth, y = desk
    kwargs = {}
    if mode != "grant-free":
        kwargs["known_active"] = truth.active
    if mode == "genie-csi":
        kwargs["known_gains"] = truth.gains
    one, two, split = _both(monkeypatch, lane_counts, lambda: (
        _decode_and_views(cfg, y, graph, pc, **kwargs)))
    assert split == {"iterate", "flood", "check_messages"}
    assert one == two


@pytest.mark.parametrize("n_live", [0, 1, 2])
def test_two_lanes_match_one_by_live_count(desk, n_live, monkeypatch,
                                           lane_counts):
    # registration with n_live known actives: every DESK user has edges,
    # so the LDPC step has n_live columns; one live user, or none, leaves
    # no user cut with edges on both sides, while the LDPC step still runs
    # its (E, n_live) arrays in two halves
    cfg, pc, graph, _, y = desk
    known = np.zeros(cfg.K, dtype=bool)
    known[:n_live] = True
    one, two, split = _both(monkeypatch, lane_counts, lambda: (
        _decode_and_views(cfg, y, graph, pc, known_active=known)))
    assert ("iterate" in split) == (n_live == 2)
    assert {"flood", "check_messages"} <= split
    assert one == two


def test_two_lanes_match_one_with_edgeless_users(desk, monkeypatch,
                                                 lane_counts):
    # every third user loses its edges, so edgeless users sit inside both
    # lanes and at the cut; they keep the prior activity
    cfg, pc, graph, _, y = desk
    sparse = graph.restricted_to(np.arange(cfg.K) % 3 != 1)
    one, two, split = _both(monkeypatch, lane_counts, lambda: (
        _decode_and_views(cfg, y, sparse, pc)))
    assert "iterate" in split
    assert one == two
    q = R.joint_decode(cfg, y, sparse, pc).q
    assert np.all(q[~sparse.has_edges] == cfg.p_a)


def test_flood_and_check_update_two_lanes_match_one(monkeypatch,
                                                    lane_counts):
    # the PAPER code (check degrees 7 and 8) on 100 columns, with exact
    # zeros and values at and beyond the clamp
    cfg = H.PAPER_CONFIG
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v, 1)
    lay = pc.layout
    # the two runs are the two classes, each with offsets from its start
    (d7, n7, _), (d8, n8, cut) = lay.classes
    assert lay.halves == ((slice(0, cut), ((d7, n7, 0),)),
                          (slice(cut, len(lay.edge_var)), ((d8, n8, 0),)))
    rng = np.random.default_rng(31)
    Lch = rng.normal(0, 3, (pc.n, 100))
    Lch[rng.random(Lch.shape) < 0.11] = 0.0
    v2c = rng.normal(0, 6, (len(lay.edge_var), 100))
    v2c[rng.random(v2c.shape) < 0.05] = 0.0
    v2c[rng.random(v2c.shape) < 0.01] = 40.0

    def run():
        c2v = np.zeros((len(lay.edge_var), 100))
        c2v_sum = np.zeros(Lch.shape)
        out = [L.check_messages(v2c, lay).tobytes()]
        for _ in range(3):
            c2v, c2v_sum, total = L.flood(Lch, c2v, c2v_sum, pc)
            out += [c2v.tobytes(), c2v_sum.tobytes(), total.tobytes()]
        return out

    one, two, split = _both(monkeypatch, lane_counts, run)
    assert split == {"flood", "check_messages"}
    assert one == two


def _on_worker(second):
    """fn for lanes.each whose first part waits until the second has
    started, so that the worker thread, not the caller, runs the second."""
    started = threading.Event()

    def fn(part):
        if part == "first":
            assert started.wait(30)
        else:
            started.set()
            second()

    return fn


def test_each_runs_the_second_part_on_the_worker():
    ran = []
    lanes.each(_on_worker(lambda: ran.append(threading.current_thread())),
               ["first", "second"])
    assert ran[0] is not threading.current_thread() and ran[0].daemon


def test_each_starts_a_worker_per_process(monkeypatch):
    # a worker recorded under another pid, as a forked child inherits it,
    # is not this process's: its thread does not exist here, so each
    # starts a new one
    stale = queue.SimpleQueue()
    monkeypatch.setattr(lanes, "_worker", (os.getpid() + 1, stale))
    ran = []
    lanes.each(_on_worker(lambda: ran.append(threading.current_thread())),
               ["first", "second"])
    assert lanes._worker[0] == os.getpid() and lanes._worker[1] is not stale
    assert ran[0].name == "gfrma-lane" and stale.empty()


def test_each_runs_the_second_part_here_if_the_worker_is_busy():
    # a job that holds the worker until released: each must not wait for
    # it, and runs both parts on the calling thread
    release = threading.Event()
    held = queue.SimpleQueue()
    lanes._jobs().put((lambda: release.wait(30), held))
    try:
        ran = []
        lanes.each(lambda part: ran.append((part, threading.get_ident())),
                   ["first", "second"])
        assert ran == [("first", threading.get_ident()),
                       ("second", threading.get_ident())]
    finally:
        release.set()
    assert held.get(timeout=30) is None


def test_each_runs_every_part_once_under_contention():
    # more calling threads than CPUs, switching as often as the interpreter
    # allows: each part runs exactly once, whoever takes its claim
    runs = collections.Counter()
    lock = threading.Lock()

    def part(key):
        with lock:
            runs[key] += 1

    def caller(t):
        for i in range(300):
            lanes.each(part, [(t, i, 0), (t, i, 1)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(t,))
                   for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(runs) == 4 * 300 * 2 and set(runs.values()) == {1}


def test_each_raises_the_workers_exception_here():
    def fail():
        raise RuntimeError("lane failed")

    with pytest.raises(RuntimeError, match="lane failed"):
        lanes.each(_on_worker(fail), ["first", "second"])
    # the worker serves the next call
    ran = []
    lanes.each(_on_worker(lambda: ran.append(1)), ["first", "second"])
    assert ran == [1]


def test_each_keeps_the_callers_errstate():
    # the worker runs in a copy of the caller's context, where np.errstate
    # lives, so a warning the caller turned off stays off there too
    def log_zero():
        np.log(np.zeros(1))

    with np.errstate(divide="ignore"):
        lanes.each(_on_worker(log_zero), ["first", "second"])
    with pytest.raises(FloatingPointError):
        with np.errstate(divide="raise"):
            lanes.each(_on_worker(log_zero), ["first", "second"])


def test_traced_functions_run_on_the_calling_thread(monkeypatch,
                                                    lane_counts):
    # The benchmark's tracer keeps one span stack and appends spans without
    # a lock, so no function it wraps may run on the lanes' worker thread.
    # Wrap every target to record the thread it runs on, as the tracer
    # installs its wrappers, then run a two-lane PAPER trial
    importlib.import_module("gfrma.de")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and n.startswith("gfrma.")]
    threads = collections.defaultdict(set)

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            threads[name].add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapped

    for mod_name, path in _targets():
        owner = importlib.import_module(f"gfrma.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        name = f"{mod_name}.{path}"
        if isinstance(raw, classmethod):
            monkeypatch.setattr(owner, attr,
                                classmethod(recording(name, raw.__func__)))
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is raw:
                    monkeypatch.setattr(mod, key, recording(name, raw))

    cfg = dataclasses.replace(H.PAPER_CONFIG, system_seed=1,
                              max_iterations=3)
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v, 1)
    graph = P.build_access_graph(cfg)
    H.run_trial(cfg, pc, graph, 0)
    assert ("iterate.<locals>.estimates", 2) in lane_counts
    assert {"receiver.joint_decode", "ldpc.check_messages",
            "ldpc.EdgeLayout.from_code"} <= set(threads)
    assert all(ids == {threading.get_ident()} for ids in threads.values())


def test_pool_after_two_lane_decode_is_deterministic(tmp_path):
    # A PAPER decode starts the worker thread; the monte_carlo pool forked
    # after it must not hang, and its one-lane workers must write the CSV
    # the two-lane serial sweep writes, byte for byte
    code = (
        "import dataclasses, threading\n"
        "from gfrma import harness as H, lanes, ldpc as L, pattern as P\n"
        "lanes._cpu_count = lambda: 2\n"
        "cfg = dataclasses.replace(H.PAPER_CONFIG, system_seed=1,\n"
        "                          max_iterations=5)\n"
        "pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v, 1)\n"
        "H.run_trial(cfg, pc, P.build_access_graph(cfg), 0)\n"
        "assert any(t.name == 'gfrma-lane' for t in threading.enumerate())\n"
        "for workers in (1, 2):\n"
        "    spec = H.ExperimentSpec(cfg, (0.0, 5.0), trials=2,\n"
        "                            master_seed=1, workers=workers)\n"
        "    H.snr_sweep_report(H.monte_carlo(spec),\n"
        f"                       {str(tmp_path)!r} + f'/w{{workers}}.csv')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    one, two = (tmp_path / "w1.csv").read_bytes(), (tmp_path / "w2.csv"
                                                     ).read_bytes()
    assert one == two and one.count(b"\n") == 3
