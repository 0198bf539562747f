"""The native launch-walk kernel and its numpy fallback.

The kernel (``repro.cache.compiled``) is built with the system C compiler
on first use.  Parity tests drive it through :meth:`ArrayLRU.walk_native`
against the numpy probe paths and the legacy engine's ``OrderedDict`` set
model.  Fallback tests hide the compiler or the cache directory, or force
the fallback, and require the vector engine to keep producing
legacy-identical snapshots.  Trust tests plant cache directories and
objects another local user could have written and require that none of
them is loaded.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import compiled
from repro.cache.array_lru import BACKENDS, ArrayLRU
from repro.errors import SimulationError
from tests.engine.test_sync_replay_property import (
    GEOMETRIES,
    WARMUPS,
    _columns,
    _oracle,
    _warmed_lru,
)

needs_native = pytest.mark.skipif(
    compiled.backend_status() != "native",
    reason=f"native kernel unavailable: {compiled.fallback_reason()}",
)


def _native(num_sets, assoc):
    return ArrayLRU(num_sets, assoc, backend="native")


def _kernel_probe(lru: ArrayLRU, sectors, sets, insert):
    """Drive the kernel as a plain requester probe (every access local)."""
    n = sectors.size
    ones = np.ones(n, dtype=bool)
    hit, home_hit = lru.walk_native(
        np.arange(n, dtype=np.int64), sectors, sets, sets, ones, insert, ones
    )
    assert not home_hit.any()
    return hit


def _random_batch(rng, n, num_sets, sector_space, all_insert=False):
    sectors = rng.integers(0, sector_space, size=n).astype(np.int64)
    sets = sectors % num_sets
    insert = (
        np.ones(n, dtype=bool)
        if all_insert
        else rng.random(n) < 0.8
    )
    return sectors, sets, insert


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
    assert ArrayLRU(4, 2, backend="native").backend == "numpy"
    assert _snapshots("vector", "conv", "H-CODA") == _snapshots(
        "legacy", "conv", "H-CODA"
    )


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            ArrayLRU(4, 2, backend="cuda")

    def test_backends_registry(self):
        assert BACKENDS == ("numpy", "native")

    def test_backend_property_reflects_availability(self):
        c = ArrayLRU(4, 2, backend="native")
        if compiled.backend_status() == "native":
            assert c.backend == "native"
            assert compiled.fallback_reason() == ""
        else:
            assert c.backend == "numpy"
        assert ArrayLRU(4, 2).backend == "numpy"

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
            assert ArrayLRU(4, 2, backend="native").backend == "numpy"
        assert (compiled.backend_status(), compiled.fallback_reason()) == before

    def test_walk_native_needs_the_kernel(self):
        one = np.zeros(1, dtype=np.int64)
        yes = np.ones(1, dtype=bool)
        args = (one, one, one, one, yes, yes, yes)
        with pytest.raises(SimulationError, match="backend='native'"):
            ArrayLRU(2, 2).walk_native(*args)
        with compiled.forced_fallback(), pytest.raises(SimulationError):
            _native(2, 2).walk_native(*args)


@needs_native
class TestSequentialKernelParity:
    """The native kernel vs the numpy round/stack/single probe paths."""

    def test_mixed_insert_random_streams(self):
        rng = np.random.default_rng(7)
        ref = ArrayLRU(16, 4)
        seq = _native(16, 4)
        for _ in range(40):
            n = int(rng.integers(1, 200))
            sectors, sets, insert = _random_batch(rng, n, 16, 300)
            hit_ref = ref.probe_batch(sectors, sets, insert)
            hit_seq = _kernel_probe(seq, sectors, sets, insert)
            np.testing.assert_array_equal(hit_ref, hit_seq)
        _assert_equivalent(ref, seq)

    def test_all_insert_stack_path(self):
        """Batches that drive the numpy stack-property path."""
        rng = np.random.default_rng(11)
        ref = ArrayLRU(8, 4)
        seq = _native(8, 4)
        for _ in range(10):
            # heavy per-set collision depth, all-insert -> _probe_stack
            sectors, sets, insert = _random_batch(
                rng, 600, 8, 64, all_insert=True
            )
            hit_ref = ref.probe_batch(sectors, sets, insert)
            hit_seq = _kernel_probe(seq, sectors, sets, insert)
            np.testing.assert_array_equal(hit_ref, hit_seq)
        _assert_equivalent(ref, seq)

    def test_single_element_batches(self):
        ref = ArrayLRU(4, 2)
        seq = _native(4, 2)
        for sector in [0, 4, 0, 8, 12, 4, 0, 16, 8]:
            one = np.array([sector], dtype=np.int64)
            assert ref.access(sector) == bool(
                _kernel_probe(seq, one, one % 4, np.array([True]))[0]
            )
        _assert_equivalent(ref, seq)

    def test_eviction_order_matches(self):
        """Fill one set past capacity; victims must match exactly."""
        ref = ArrayLRU(1, 2)
        seq = _native(1, 2)
        stream = np.array([1, 2, 3, 1, 2, 3, 3, 2, 1], dtype=np.int64)
        hits = _kernel_probe(seq, stream, np.zeros_like(stream), np.ones(9, bool))
        assert [ref.access(int(s)) for s in stream] == hits.tolist()
        _assert_equivalent(ref, seq)

    def test_order_permutes_visits_not_outputs(self):
        """Outcomes land at each access's own index, whatever the order."""
        sectors = np.array([5, 5, 9], dtype=np.int64)
        sets = np.zeros(3, dtype=np.int64)
        ones = np.ones(3, dtype=bool)
        c = _native(1, 2)
        hit, _ = c.walk_native(
            np.array([2, 1, 0], dtype=np.int64), sectors, sets, sets, ones, ones, ones
        )
        assert hit.tolist() == [True, False, False]

    def test_bad_indices_rejected_before_the_kernel_runs(self):
        c = _native(2, 2)
        idx = np.array([0, 1], dtype=np.int64)
        ones = np.ones(2, dtype=bool)
        for order, sets, flags in (
            (np.array([0, 2]), idx, ones),  # order past the stream
            (idx, np.array([0, 2]), ones),  # set past the table
            (idx, np.array([-1, 0]), ones),  # negative set
            (idx, idx, ones[:1]),  # ragged flag column
        ):
            with pytest.raises(SimulationError):
                c.walk_native(order, idx, sets, sets, flags, flags, flags)
        assert c.occupancy == 0


# Requester-only elements: (sector, node, home, req_ins, home_ins).
REQUESTER_STREAMS = st.lists(
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


@needs_native
class TestKernelProperty:
    @given(
        geometry=GEOMETRIES,
        raw=REQUESTER_STREAMS,
        warm=st.one_of(st.just([]), WARMUPS),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_ordered_dict_oracle(self, geometry, raw, warm):
        num_nodes, num_sets, assoc = geometry
        elements = [
            (sec, node % num_nodes, home % num_nodes, False, req_ins, home_ins)
            for sec, node, home, req_ins, home_ins in raw
        ]
        l2 = _warmed_lru(num_nodes, num_sets, assoc, warm, backend="native")
        sec, _, _, _, local, req_ins, home_ins, req_set, home_set = _columns(
            elements, num_sets
        )
        req_hit, home_hit = l2.walk_native(
            np.arange(sec.size, dtype=np.int64), sec, req_set, home_set,
            local, req_ins, home_ins,
        )
        caches, masks, _, _, _ = _oracle(num_nodes, num_sets, assoc, warm, elements)
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
    """The vector engine end to end: native walk, forced numpy walk, legacy."""

    def test_snapshot_matches_vector(self):
        native = _snapshots("vector")
        with compiled.forced_fallback():
            numpy_walk = _snapshots("vector")
        assert native == numpy_walk == _snapshots("legacy")

    def test_engine_registered(self):
        from repro.engine.simulator import ENGINES

        assert ENGINES == ("vector", "legacy")


class TestFallback:
    """No compiler, a failing build or no writable cache: numpy, same answers."""

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
