"""The launch-walk kernel, its Python mirror and the no-compiler fallback.

The kernels (``repro.cache.compiled``: the launch walk and the per-TB L1
filter, one shared object) are built with the system C compiler on first
use; without one, :func:`compiled.walk` runs ``_walk_py``, the walk's
line-for-line Python mirror.  (The L1 filter's parity tests live in
``tests/engine/test_trace_cache.py``.)  Parity tests drive both legs through
:meth:`ArrayLRU.walk` against the legacy engine's ``OrderedDict`` set model
and against each other.  Fallback tests hide the compiler or the cache
directory, or force the fallback, and require the vector engine to keep
producing legacy-identical snapshots.  Trust tests plant cache directories
and objects another local user could have written and require that none of
them is loaded.
"""

import contextlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArrayLRU, SectoredCache, compiled
from repro.errors import SimulationError

needs_native = pytest.mark.skipif(
    compiled.backend_status() != "native",
    reason=f"native kernel unavailable: {compiled.fallback_reason()}",
)

#: The two walk legs: the C kernel (needs a compiler) and the Python mirror.
LEGS = [
    pytest.param(contextlib.nullcontext, id="kernel", marks=needs_native),
    pytest.param(compiled.forced_fallback, id="mirror"),
]


# ----------------------------------------------------------------------
# Stream generation and the OrderedDict oracle
# ----------------------------------------------------------------------
GEOMETRIES = st.tuples(
    st.integers(min_value=2, max_value=3),  # nodes
    st.integers(min_value=2, max_value=4),  # sets per node
    st.integers(min_value=2, max_value=3),  # ways
)

# Warm-up stream: (sector, node) requester inserts applied before the walk,
# so it starts from non-trivial tag/stamp state.
WARMUPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=60,
)

# Accesses: (sector, node, home, req_ins, home_ins).  A small sector
# universe forces reuse, hits, evictions and set collisions.
ACCESS_STREAMS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)


def _columns(elements, num_sets):
    sec = np.array([e[0] for e in elements], dtype=np.int64)
    node = np.array([e[1] for e in elements], dtype=np.int64)
    home = np.array([e[2] for e in elements], dtype=np.int64)
    req_ins = np.array([e[3] for e in elements], dtype=bool)
    home_ins = np.array([e[4] for e in elements], dtype=bool)
    local = home == node
    req_set = node * num_sets + sec % num_sets
    home_set = home * num_sets + sec % num_sets
    return sec, local, req_ins, home_ins, req_set, home_set


def _warmed_lru(num_nodes, num_sets, assoc, warm):
    l2 = ArrayLRU(num_nodes * num_sets, assoc)
    if warm:
        sec = np.array([s for s, _ in warm], dtype=np.int64)
        sets = np.array([n % num_nodes for _, n in warm]) * num_sets + sec % num_sets
        yes = np.ones(sec.size, dtype=bool)
        l2.walk(np.arange(sec.size), sec, sets, sets, yes, yes, yes)
    return l2


def _dict_touch(d, sec, insert, assoc):
    """One OrderedDict set operation exactly as the legacy walk does it."""
    if sec in d:
        d.move_to_end(sec)
        return True
    if insert:
        d[sec] = None
        if len(d) > assoc:
            d.popitem(last=False)
    return False


def _oracle(num_nodes, num_sets, assoc, warm, elements, order):
    """Warm-up, then ``elements`` visited in ``order``, through per-node
    SectoredCaches: the legacy engine's inner loop.  Returns the caches and
    element-aligned ``(req_hit, home_present, home_hit)``."""
    caches = [SectoredCache(num_sets, assoc) for _ in range(num_nodes)]
    for sec, node in warm:
        node %= num_nodes
        _dict_touch(caches[node]._sets[sec % num_sets], sec, True, assoc)
    K = len(elements)
    req_hit = np.zeros(K, dtype=bool)
    home_present = np.zeros(K, dtype=bool)
    home_hit = np.zeros(K, dtype=bool)
    for k in order:
        sec, node, home, req_ins, home_ins = elements[k]
        req_hit[k] = _dict_touch(caches[node]._sets[sec % num_sets], sec, req_ins, assoc)
        if req_hit[k] or home == node:
            continue
        home_present[k] = True
        home_hit[k] = _dict_touch(caches[home]._sets[sec % num_sets], sec, home_ins, assoc)
    return caches, (req_hit, home_present, home_hit)


def _requester_walk(lru: ArrayLRU, sectors, sets, insert):
    """Drive the walk as a plain requester probe (every access local)."""
    n = sectors.size
    ones = np.ones(n, dtype=bool)
    hit, home_hit = lru.walk(
        np.arange(n, dtype=np.int64), sectors, sets, sets, ones, insert, ones
    )
    assert not home_hit.any()
    return hit


def _assert_equivalent(a: ArrayLRU, b: ArrayLRU):
    """Same resident sectors and same LRU order in every set."""
    assert a.occupancy == b.occupancy
    for s in range(a.num_sets):
        assert list(a.lru_order(s)) == list(b.lru_order(s)), f"set {s}"


def _snapshots(engine, workload="lstm1", strategy="LADM"):
    from repro.compiler.passes import compile_program
    from repro.engine.simulator import Simulator
    from repro.engine.walk_memo import WalkMemo
    from repro.experiments.runner import strategy_by_name
    from repro.topology.config import bench_hierarchical
    from repro.workloads.base import TEST
    from repro.workloads.suite import get_workload

    prog = compile_program(get_workload(workload).program(TEST))
    sim = Simulator(bench_hierarchical(), engine=engine, walk_memo=WalkMemo(0))
    plan = strategy_by_name(strategy).plan(prog, sim.topology)
    return [k.snapshot() for k in sim.run(prog, plan).kernels]


def _assert_fallback():
    """No kernel, and the vector engine still matches the legacy walk."""
    assert compiled.backend_status() == "fallback"
    assert compiled.fallback_reason()
    assert compiled.load() is None
    assert _snapshots("vector", "conv", "H-CODA") == _snapshots(
        "legacy", "conv", "H-CODA"
    )


class TestBackendSelection:
    def test_import_never_builds(self):
        """The kernel is resolved on first use, never at import."""
        code = "import repro.cli, repro.cache.compiled as c; print(c._STATE)"
        pkg = os.path.dirname(os.path.dirname(os.path.abspath(compiled.__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(pkg))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.strip() == "None"

    def test_forced_fallback_is_scoped(self):
        before = (compiled.backend_status(), compiled.fallback_reason())
        with compiled.forced_fallback():
            assert compiled.load() is None
            assert compiled.backend_status() == "fallback"
            assert "forced_fallback" in compiled.fallback_reason()
        assert (compiled.backend_status(), compiled.fallback_reason()) == before


@needs_native
class TestSequentialKernelParity:
    """The native kernel vs its Python mirror and the dict model."""

    def test_mixed_insert_random_streams(self):
        """Kernel and mirror agree on outcomes *and* raw state: the same
        victim way, the same stamps and the same clock after every call."""
        rng = np.random.default_rng(7)
        num_nodes, num_sets = 2, 8
        native = ArrayLRU(num_nodes * num_sets, 4)
        mirror = ArrayLRU(num_nodes * num_sets, 4)
        for _ in range(40):
            n = int(rng.integers(1, 200))
            elements = [
                (int(sec), int(node), int(home), bool(ri), bool(hi))
                for sec, node, home, ri, hi in zip(
                    rng.integers(0, 300, n), rng.integers(0, num_nodes, n),
                    rng.integers(0, num_nodes, n), rng.random(n) < 0.8,
                    rng.random(n) < 0.5,
                )
            ]
            cols = _columns(elements, num_sets)
            sec, local, req_ins, home_ins, req_set, home_set = cols
            order = rng.permutation(n)
            args = (order, sec, req_set, home_set, local, req_ins, home_ins)
            got_native = native.walk(*args)
            with compiled.forced_fallback():
                got_mirror = mirror.walk(*args)
            for a, b in zip(got_native, got_mirror):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(native.tags, mirror.tags)
            np.testing.assert_array_equal(native.stamp, mirror.stamp)
            assert native.clock == mirror.clock

    def test_single_element_batches(self):
        native = ArrayLRU(4, 2)
        mirror = ArrayLRU(4, 2)
        for sector in [0, 4, 0, 8, 12, 4, 0, 16, 8]:
            with compiled.forced_fallback():
                want = mirror.access(sector)
            assert native.access(sector) == want
        _assert_equivalent(native, mirror)

    def test_eviction_order_matches(self):
        """Fill one set past capacity; victims must match exactly."""
        ref = SectoredCache(1, 2)
        seq = ArrayLRU(1, 2)
        stream = np.array([1, 2, 3, 1, 2, 3, 3, 2, 1], dtype=np.int64)
        hits = _requester_walk(seq, stream, np.zeros_like(stream), np.ones(9, bool))
        assert [ref.access(int(s)) for s in stream] == hits.tolist()
        assert list(ref._sets[0].keys()) == seq.lru_order(0).tolist()

    def test_order_permutes_visits_not_outputs(self):
        """Outcomes land at each access's own index, whatever the order."""
        sectors = np.array([5, 5, 9], dtype=np.int64)
        sets = np.zeros(3, dtype=np.int64)
        ones = np.ones(3, dtype=bool)
        c = ArrayLRU(1, 2)
        hit, _ = c.walk(
            np.array([2, 1, 0], dtype=np.int64), sectors, sets, sets, ones, ones, ones
        )
        assert hit.tolist() == [True, False, False]

    def test_bad_indices_rejected_before_the_kernel_runs(self):
        idx = np.array([0, 1], dtype=np.int64)
        ones = np.ones(2, dtype=bool)
        for leg in (contextlib.nullcontext, compiled.forced_fallback):
            c = ArrayLRU(2, 2)
            for order, sets, flags in (
                (np.array([0, 2]), idx, ones),  # order past the stream
                (idx, np.array([0, 2]), ones),  # set past the table
                (idx, np.array([-1, 0]), ones),  # negative set
                (idx, idx, ones[:1]),  # ragged flag column
            ):
                with leg(), pytest.raises(SimulationError):
                    c.walk(order, idx, sets, sets, flags, flags, flags)
            assert c.occupancy == 0


class TestKernelProperty:
    @pytest.mark.parametrize("leg", LEGS)
    @given(
        geometry=GEOMETRIES,
        raw=ACCESS_STREAMS,
        warm=st.one_of(st.just([]), WARMUPS),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_ordered_dict_oracle(self, leg, geometry, raw, warm, data):
        num_nodes, num_sets, assoc = geometry
        elements = [
            (sec, node % num_nodes, home % num_nodes, req_ins, home_ins)
            for sec, node, home, req_ins, home_ins in raw
        ]
        # Visit order differs from index order: outcomes must still land at
        # each access's own index.
        order = data.draw(st.permutations(range(len(elements))), label="order")
        sec, local, req_ins, home_ins, req_set, home_set = _columns(elements, num_sets)
        with leg():
            l2 = _warmed_lru(num_nodes, num_sets, assoc, warm)
            req_hit, home_hit = l2.walk(
                np.array(order, dtype=np.int64), sec, req_set, home_set,
                local, req_ins, home_ins,
            )
        caches, masks = _oracle(num_nodes, num_sets, assoc, warm, elements, order)
        want_req, want_present, want_home = masks
        assert req_hit.tolist() == want_req.tolist()
        assert (~(local | req_hit)).tolist() == want_present.tolist()
        assert home_hit.tolist() == want_home.tolist()
        for node in range(num_nodes):
            for s in range(num_sets):
                assert (
                    list(caches[node]._sets[s].keys())
                    == l2.lru_order(node * num_sets + s).tolist()
                ), f"LRU state diverged at node {node} set {s}"


class TestCompiledEngine:
    """The vector engine end to end: native walk, forced mirror, legacy."""

    def test_snapshot_matches_vector(self):
        native = _snapshots("vector")
        with compiled.forced_fallback():
            mirror = _snapshots("vector")
        assert native == mirror == _snapshots("legacy")

    def test_engine_registered(self):
        from repro.engine.simulator import ENGINES

        assert ENGINES == ("vector", "legacy")


class TestFallback:
    """No compiler, a failing build or no writable cache: mirror, same answers."""

    def test_missing_compiler(self, monkeypatch):
        monkeypatch.setattr(compiled, "_STATE", None)
        monkeypatch.setattr(compiled, "_CC", "repro-no-such-compiler")
        _assert_fallback()
        assert "no C compiler" in compiled.fallback_reason()

    def test_failing_build(self, monkeypatch, tmp_path):
        monkeypatch.setattr(compiled, "_STATE", None)
        monkeypatch.setattr(compiled, "_CC", "false")
        monkeypatch.setattr(compiled, "_cache_dirs", lambda: [str(tmp_path)])
        _assert_fallback()
        assert os.listdir(tmp_path) == []  # the temp object was cleaned up

    def test_unwritable_cache_dir(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setattr(compiled, "_STATE", None)
        monkeypatch.setattr(
            compiled, "_cache_dirs", lambda: [str(blocker / "cache")]
        )
        _assert_fallback()

    @needs_native
    def test_build_lands_atomically_in_first_writable_dir(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        good = tmp_path / "cache"
        monkeypatch.setattr(compiled, "_STATE", None)
        monkeypatch.setattr(
            compiled, "_cache_dirs", lambda: [str(blocker / "x"), str(good)]
        )
        assert compiled.backend_status() == "native"
        (name,) = os.listdir(good)
        assert name.startswith("_walk_") and not name.startswith(".build-")
        # Created private to this user; the object is writable by its owner only.
        assert os.stat(good).st_mode & 0o777 == 0o700
        assert not os.stat(good / name).st_mode & 0o022


class TestCacheTrust:
    """Loading the cached object runs its code, so a cache directory or
    object anyone but this user (or root) could have written is skipped:
    the walk falls back rather than load it."""

    @staticmethod
    def _use(monkeypatch, *dirs):
        monkeypatch.setattr(compiled, "_STATE", None)
        monkeypatch.setattr(compiled, "_cache_dirs", lambda: [str(d) for d in dirs])

    @needs_native  # without a compiler the reason reads "no C compiler"
    def test_world_writable_dir_is_skipped(self, monkeypatch, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o1777)  # like a shared temp directory
        self._use(monkeypatch, shared)
        _assert_fallback()
        assert "not private" in compiled.fallback_reason()
        assert os.listdir(shared) == []

    def test_symlinked_dir_is_skipped(self, monkeypatch, tmp_path):
        real = tmp_path / "real"
        real.mkdir(mode=0o700)
        link = tmp_path / "link"
        link.symlink_to(real)
        self._use(monkeypatch, link)
        _assert_fallback()
        assert os.listdir(real) == []

    @pytest.mark.skipif(os.getuid() != 0, reason="giving a directory away needs root")
    def test_foreign_owned_dir_is_skipped(self, monkeypatch, tmp_path):
        foreign = tmp_path / "foreign"
        foreign.mkdir(mode=0o755)
        os.chown(foreign, 4242, 4242)
        self._use(monkeypatch, foreign)
        _assert_fallback()
        assert os.listdir(foreign) == []

    @needs_native
    @pytest.mark.parametrize("plant", ["group-writable", "symlink"])
    def test_planted_object_is_never_loaded(self, monkeypatch, tmp_path, plant):
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        target = cache / f"_walk_{compiled._digest()}.so"
        if plant == "symlink":
            bait = tmp_path / "bait.so"
            bait.write_bytes(b"planted")
            target.symlink_to(bait)
        else:
            target.write_bytes(b"planted")
            target.chmod(0o664)
        self._use(monkeypatch, cache)
        _assert_fallback()
        assert "not private" in compiled.fallback_reason()

    @needs_native
    def test_untrusted_dir_yields_to_the_next(self, monkeypatch, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        good = tmp_path / "good"
        self._use(monkeypatch, shared, good)
        assert compiled.backend_status() == "native"
        assert os.listdir(shared) == []
        assert len(os.listdir(good)) == 1
