"""In-memory trace representation: the per-core lane store.

Aftermath keeps simple, efficient data structures for traces
(Section VI-B-c): *one array per core and per type of event, sorted by
timestamp*, so that the events of any time interval can be found with a
binary search.  This module realizes that layout literally:

* :class:`Trace` — the immutable trace every analysis and rendering
  component operates on.  For every core it holds one numpy structured
  array per record kind (state intervals, task executions, discrete
  events, communication events, memory accesses) plus one array per
  ``(core, counter)`` pair for counter samples.  It is also the layout
  the memory-mapped ``.ostc`` sidecar persists
  (:mod:`repro.trace_format.cache`);
* :class:`LaneStack` — the lanes of one record kind, with a lazy
  concatenated column view for the whole-trace analyses;
* :class:`TraceBuilder` — an append-only accumulator used both by the
  run-time tracer and by the trace-file readers.  Columns are
  ``array.array`` buffers, so building million-event traces does not
  allocate millions of Python objects;
* :func:`traces_equal` — order-insensitive equality between two
  stores, the oracle of the round-trip property tests.

Records may be appended in any order; the builder sorts per core at
:meth:`TraceBuilder.build` time.  (Trace *files* additionally guarantee
per-core timestamp order, which makes this sort cheap — Section VI-A.)
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

import numpy as np

from .events import (CommEvent, CounterDescription, DiscreteEvent,
                     MemoryAccess, RegionInfo, StateInterval, TaskExecution,
                     TaskTypeInfo)
from .index import interval_slice, point_slice

#: One record per worker-state interval of one core.
STATE_DTYPE = np.dtype([("state", np.int64), ("start", np.int64),
                        ("end", np.int64)])
#: One record per task execution of one core.
TASK_DTYPE = np.dtype([("task_id", np.int64), ("type_id", np.int64),
                       ("start", np.int64), ("end", np.int64)])
#: One record per discrete (point) event of one core.
DISCRETE_DTYPE = np.dtype([("kind", np.int64), ("timestamp", np.int64),
                           ("payload", np.int64)])
#: One record per communication event originating at one core.
COMM_DTYPE = np.dtype([("dst_core", np.int64), ("timestamp", np.int64),
                       ("size", np.int64), ("task_id", np.int64)])
#: One record per memory access performed on one core.
ACCESS_DTYPE = np.dtype([("task_id", np.int64), ("address", np.int64),
                         ("size", np.int64), ("is_write", np.int64),
                         ("timestamp", np.int64)])
#: One record per sample of one counter on one core.
COUNTER_DTYPE = np.dtype([("timestamp", np.int64),
                          ("value", np.float64)])


class RegionLookup:
    """Address -> region / NUMA-node lookup over the placement table.

    The trace file stores placement once per region (Section VI-A);
    this index answers "which node holds this address" for single
    addresses and, vectorized, for whole access columns.
    """

    def __init__(self, regions):
        self.regions = sorted(regions, key=lambda region: region.address)
        self._starts = np.asarray(
            [region.address for region in self.regions], dtype=np.int64)
        self._built = False

    def _build(self):
        page_offsets = [0]
        pages = []
        for region in self.regions:
            pages.extend(region.page_nodes)
            page_offsets.append(len(pages))
        self._page_nodes_flat = np.asarray(pages, dtype=np.int64)
        self._page_offsets = np.asarray(page_offsets, dtype=np.int64)
        self._page_counts = np.asarray(
            [len(region.page_nodes) for region in self.regions],
            dtype=np.int64)
        self._ends = np.asarray(
            [region.end for region in self.regions], dtype=np.int64)
        self._built = True

    def region_of(self, address):
        """The :class:`RegionInfo` containing ``address`` or ``None``."""
        if not self.regions:
            return None
        position = int(np.searchsorted(self._starts, address,
                                       side="right")) - 1
        if position < 0:
            return None
        region = self.regions[position]
        if region.address <= address < region.end:
            return region
        return None

    def node_of_address(self, address):
        """NUMA node holding ``address``, or ``None`` outside regions.

        Pages past the end of a region's placement table count as never
        physically allocated, like explicit ``-1`` entries.
        """
        region = self.region_of(address)
        if region is None:
            return None
        page = (address - region.address) // 4096
        if page >= len(region.page_nodes):
            return None
        node = region.page_nodes[page]
        return None if node < 0 else node

    def nodes_of_addresses(self, addresses):
        """Vectorized :meth:`node_of_address`: NUMA node per address.

        Returns an int array; addresses outside any region (or on pages
        that were never physically allocated) map to -1.  The flattened
        page-placement index is built on first use and cached.
        """
        if not self._built:
            self._build()
        addresses = np.asarray(addresses, dtype=np.int64)
        result = np.full(len(addresses), -1, dtype=np.int64)
        if not self.regions or len(addresses) == 0:
            return result
        position = np.searchsorted(self._starts, addresses,
                                   side="right") - 1
        valid = position >= 0
        clipped = np.clip(position, 0, None)
        valid &= addresses < self._ends[clipped]
        if not valid.any():
            return result
        region_index = clipped[valid]
        page = (addresses[valid]
                - self._starts[region_index]) // 4096
        # Pages past a region's placement table were never physically
        # allocated — same as explicit -1 entries.
        placed = page < self._page_counts[region_index]
        nodes = np.full(len(region_index), -1, dtype=np.int64)
        nodes[placed] = self._page_nodes_flat[
            self._page_offsets[region_index[placed]] + page[placed]]
        result[valid] = nodes
        return result


class _Columns:
    """A set of parallel ``array.array('q')`` columns."""

    def __init__(self, names):
        self.names = tuple(names)
        self.columns = {name: array("q") for name in self.names}

    def append(self, *values):
        for name, value in zip(self.names, values):
            self.columns[name].append(int(value))

    def __len__(self):
        return len(self.columns[self.names[0]])

    def to_numpy(self):
        return {name: np.asarray(self.columns[name], dtype=np.int64)
                for name in self.names}


class LaneStack:
    """One sorted structured array per core for one record kind.

    ``lane(core)`` is the per-core array itself (zero-copy field
    access); ``columns`` / ``core_column`` / ``core_slice`` present the
    concatenated core-major column view the whole-trace analyses use.
    The synthesized ``core_name`` column (the lane index) exists only
    in these views — the lanes themselves never store it.
    """

    def __init__(self, lanes, column_order, core_name="core"):
        self.lanes = list(lanes)
        self.column_order = tuple(column_order)
        self.core_name = core_name
        lengths = np.asarray([len(lane) for lane in self.lanes],
                             dtype=np.int64)
        self.offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lengths)))
        self._columns = None

    def __len__(self):
        return int(self.offsets[-1])

    def lane(self, core):
        """The structured event array of one core."""
        return self.lanes[core]

    def core_slice(self, core):
        """Concatenated-column slice covering one core's events."""
        return slice(int(self.offsets[core]), int(self.offsets[core + 1]))

    def core_column(self, core, name):
        """One column of one core's lane (``core_name`` synthesized)."""
        if name == self.core_name:
            return np.full(len(self.lanes[core]), core, dtype=np.int64)
        return self.lanes[core][name]

    @property
    def columns(self):
        """Concatenated (core-major, per-core sorted) column dict.
        Built lazily."""
        if self._columns is None:
            lengths = [len(lane) for lane in self.lanes]
            columns = {}
            for name in self.column_order:
                if name == self.core_name:
                    columns[name] = np.repeat(
                        np.arange(len(self.lanes), dtype=np.int64),
                        lengths)
                elif self.lanes:
                    columns[name] = np.concatenate(
                        [np.ascontiguousarray(lane[name])
                         for lane in self.lanes])
                else:
                    columns[name] = np.empty(0, dtype=np.int64)
            self._columns = columns
        return self._columns


def _lane_from_columns(columns, selection, dtype):
    """A structured array from a slice/index of parallel columns."""
    reference = columns[dtype.names[0]][selection]
    lane = np.empty(len(reference), dtype=dtype)
    lane[dtype.names[0]] = reference
    for name in dtype.names[1:]:
        lane[name] = columns[name][selection]
    return lane


def _split_by_core(columns, core_key, sort_key, num_cores, dtype):
    """Per-core sorted lanes from flat columns (stable in ties)."""
    order = np.lexsort((columns[sort_key], columns[core_key]))
    ordered = {name: values[order] for name, values in columns.items()}
    offsets = np.searchsorted(ordered[core_key],
                              np.arange(num_cores + 1))
    return [_lane_from_columns(
                ordered, slice(int(offsets[core]), int(offsets[core + 1])),
                dtype)
            for core in range(num_cores)]


class TraceBuilder:
    """Accumulates trace records and assembles a :class:`Trace`.

    The topology may arrive at any time before :meth:`build` (trace
    files allow static records anywhere), via the constructor or
    :meth:`set_topology`.
    """

    def __init__(self, topology=None):
        self.topology = topology
        self._states = _Columns(("core", "state", "start", "end"))
        self._tasks = _Columns(("task_id", "type_id", "core", "start",
                                "end"))
        self._discrete = _Columns(("core", "kind", "timestamp", "payload"))
        self._comm = _Columns(("src_core", "dst_core", "timestamp", "size",
                               "task_id"))
        self._accesses = _Columns(("task_id", "core", "address", "size",
                                   "is_write", "timestamp"))
        self._counter_times: Dict[Tuple[int, int], array] = {}
        self._counter_values: Dict[Tuple[int, int], array] = {}
        self.counter_descriptions: List[CounterDescription] = []
        self.task_types: List[TaskTypeInfo] = []
        self.regions: List[RegionInfo] = []

    # -- static records ---------------------------------------------------
    def set_topology(self, topology):
        """Install the topology (any time before :meth:`build`)."""
        self.topology = topology

    def describe_counter(self, name, monotone=True):
        """Register a counter; returns its id."""
        counter_id = len(self.counter_descriptions)
        self.counter_descriptions.append(
            CounterDescription(counter_id=counter_id, name=name,
                               monotone=monotone))
        return counter_id

    def describe_task_type(self, info):
        """Register a :class:`TaskTypeInfo` static record."""
        self.task_types.append(info)

    def describe_region(self, info):
        """Register a :class:`RegionInfo` static record."""
        self.regions.append(info)

    # -- event records ----------------------------------------------------
    def state_interval(self, core, state, start, end):
        """Append one worker-state interval record."""
        if end > start:
            self._states.append(core, state, start, end)

    def task_execution(self, task_id, type_id, core, start, end):
        """Append one task-execution record."""
        self._tasks.append(task_id, type_id, core, start, end)

    def discrete_event(self, core, kind, timestamp, payload=0):
        """Append one discrete (point) event record."""
        self._discrete.append(core, kind, timestamp, payload)

    def comm_event(self, src_core, dst_core, timestamp, size=0, task_id=-1):
        """Append one communication event record."""
        self._comm.append(src_core, dst_core, timestamp, size, task_id)

    def memory_access(self, task_id, core, address, size, is_write,
                      timestamp):
        """Append one memory-access record."""
        self._accesses.append(task_id, core, address, size,
                              1 if is_write else 0, timestamp)

    def counter_sample(self, core, counter_id, timestamp, value):
        """Append one counter sample for a core's counter."""
        key = (core, counter_id)
        times = self._counter_times.get(key)
        if times is None:
            times = self._counter_times[key] = array("q")
            self._counter_values[key] = array("d")
        times.append(int(timestamp))
        self._counter_values[key].append(float(value))

    def build(self):
        """Freeze the accumulated records into per-core sorted lanes."""
        if self.topology is None:
            raise ValueError("cannot build a trace without a topology")
        num_cores = self.topology.num_cores
        counter_lanes = {}
        for key, times in self._counter_times.items():
            timestamps = np.asarray(times, dtype=np.int64)
            values = np.asarray(self._counter_values[key],
                                dtype=np.float64)
            order = np.argsort(timestamps, kind="stable")
            lane = np.empty(len(timestamps), dtype=COUNTER_DTYPE)
            lane["timestamp"] = timestamps[order]
            lane["value"] = values[order]
            counter_lanes[key] = lane
        return Trace(
            topology=self.topology,
            states=_split_by_core(self._states.to_numpy(), "core",
                                  "start", num_cores, STATE_DTYPE),
            tasks=_split_by_core(self._tasks.to_numpy(), "core", "start",
                                 num_cores, TASK_DTYPE),
            discrete=_split_by_core(self._discrete.to_numpy(), "core",
                                    "timestamp", num_cores,
                                    DISCRETE_DTYPE),
            comm=_split_by_core(self._comm.to_numpy(), "src_core",
                                "timestamp", num_cores, COMM_DTYPE),
            accesses=_split_by_core(self._accesses.to_numpy(), "core",
                                    "timestamp", num_cores, ACCESS_DTYPE),
            counter_lanes=counter_lanes,
            counter_descriptions=list(self.counter_descriptions),
            task_types=list(self.task_types),
            regions=list(self.regions))


class Trace:
    """An immutable trace stored as per-core sorted structured arrays,
    ready for analysis and rendering."""

    def __init__(self, topology, states, tasks, discrete, comm, accesses,
                 counter_lanes, counter_descriptions, task_types, regions,
                 time_bounds=None, pyramids=None):
        self.topology = topology
        # Persisted render pyramids of a memory-mapped open (see
        # repro.trace_format.cache.MappedPyramids); in-memory stores
        # build the equivalent structures lazily instead.  Windowed
        # sub-traces never inherit them: their lanes are slices the
        # persisted levels do not describe.
        self.pyramids = pyramids
        self.states = LaneStack(states, ("core", "state", "start", "end"))
        self.tasks = LaneStack(tasks, ("task_id", "type_id", "core",
                                       "start", "end"))
        self.discrete = LaneStack(discrete, ("core", "kind", "timestamp",
                                             "payload"))
        self.comm_lanes = LaneStack(comm, ("src_core", "dst_core",
                                           "timestamp", "size", "task_id"),
                                    core_name="src_core")
        self.access_lanes = LaneStack(accesses, ("task_id", "core",
                                                 "address", "size",
                                                 "is_write", "timestamp"))
        self.counter_lanes = dict(counter_lanes)
        self.counter_descriptions = list(counter_descriptions)
        self.task_types = list(task_types)
        self._region_lookup = RegionLookup(regions)
        self.regions = self._region_lookup.regions
        self._comm = None
        self._accesses = None
        self._counter_series = None
        self._task_index = None
        # Lazily built per-(core, counter) min/max trees and per-core
        # state indexes/tiles (see minmax_tree, state_index, state_tiles).
        self._minmax_trees = {}
        self._state_indexes = {}
        self._state_tiles = {}
        # ``time_bounds`` lets a memory-mapped open skip the bounds
        # scan (which would fault in every page of the interval lanes);
        # the cache header stores the bounds instead.
        if time_bounds is None:
            self.begin, self.end = self._time_bounds()
        else:
            self.begin, self.end = int(time_bounds[0]), int(time_bounds[1])

    # -- global properties --------------------------------------------
    @property
    def num_cores(self):
        """Total cores of the traced machine."""
        return self.topology.num_cores

    @property
    def duration(self):
        """Cycles between the first and last event."""
        return self.end - self.begin

    def _time_bounds(self):
        begin, end = [], []
        for stack in (self.states, self.tasks):
            for lane in stack.lanes:
                if len(lane):
                    begin.append(int(lane["start"][0]))
                    end.append(int(lane["end"].max()))
        for lane in self.counter_lanes.values():
            if len(lane):
                begin.append(int(lane["timestamp"][0]))
                end.append(int(lane["timestamp"][-1]))
        if not begin:
            return 0, 0
        return min(begin), max(end)

    # -- global column views -------------------------------------------
    @property
    def comm(self):
        """Communication events as one global, time-sorted column
        dict."""
        if self._comm is None:
            columns = self.comm_lanes.columns
            order = np.argsort(columns["timestamp"], kind="stable")
            self._comm = {name: columns[name][order]
                          for name in self.comm_lanes.column_order}
        return self._comm

    @property
    def accesses(self):
        """Memory accesses as one task-sorted column dict."""
        if self._accesses is None:
            columns = self.access_lanes.columns
            order = np.argsort(columns["task_id"], kind="stable")
            self._accesses = {name: columns[name][order]
                              for name in self.access_lanes.column_order}
        return self._accesses

    # -- counters -------------------------------------------------------
    @property
    def counter_series(self):
        """``(core, counter_id) -> (timestamps, values)`` views."""
        if self._counter_series is None:
            self._counter_series = {
                key: (lane["timestamp"], lane["value"])
                for key, lane in self.counter_lanes.items()}
        return self._counter_series

    def counter_lane(self, core, counter_id):
        """The structured sample array of one counter on one core."""
        empty = np.empty(0, dtype=COUNTER_DTYPE)
        return self.counter_lanes.get((core, counter_id), empty)

    def counter_samples(self, core, counter_id):
        """(timestamps, values) arrays for one counter on one core.

        Served straight from the lane dict: the first frame after a
        mapped reopen must not pay for cutting field views of every
        counter lane (the ``counter_series`` property) to read one.
        """
        lane = self.counter_lanes.get((core, counter_id))
        if lane is None:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        return lane["timestamp"], lane["value"]

    # -- counter lookups ------------------------------------------------
    def counter_id(self, name):
        """Counter id for a name (ids pass through unchanged)."""
        for description in self.counter_descriptions:
            if description.name == name:
                return description.counter_id
        raise KeyError("no counter named {!r}".format(name))

    def counter_name(self, counter_id):
        """Counter name for an id."""
        return self.counter_descriptions[counter_id].name

    def minmax_tree(self, core, counter_id, arity=None):
        """The n-ary min/max tree of one counter on one core, memoized.

        Section VI-B-c builds these once per (core, counter) at load
        time; memoizing them on the store gives the same effect lazily:
        the first frame of a counter overlay builds the tree, every
        later zoom/pan frame reuses it.  Shared by
        :class:`~repro.core.interval_tree.CounterIndex`,
        :func:`~repro.render.counter_overlay.value_bounds` and the
        vectorized render kernels.
        """
        from .interval_tree import DEFAULT_ARITY, MinMaxTree
        arity = DEFAULT_ARITY if arity is None else arity
        key = (core, counter_id, arity)
        tree = self._minmax_trees.get(key)
        if tree is None:
            __, values = self.counter_samples(core, counter_id)
            if self.pyramids is not None:
                # A memory-mapped store serves the persisted pyramid
                # levels instead of rebuilding the tree: first frame
                # after reopen touches O(header) bytes, not the lane.
                tree = self.pyramids.counter_tree(core, counter_id,
                                                  values, arity)
            if tree is None:
                tree = MinMaxTree(values, arity=arity)
            self._minmax_trees[key] = tree
        return tree

    def counter_columns(self, core, counter_id, view):
        """Persisted pixel columns for a counter lane under ``view``,
        or ``None`` when they cannot serve it.

        A mapped store carries pre-rendered whole-trace columns at the
        standard tile widths (written by the render kernel itself, so
        they are bit-identical to rendering live).  They apply only to
        a fit view at a persisted width; anything else falls back to
        the kernel.  Persisted widths never exceed the trace's span,
        so a served view is never below one cycle per pixel.  Returns
        the ``(xs, vmins, vmaxs)`` triple the kernel would have
        produced.
        """
        if self.pyramids is None:
            return None
        if (view.start, view.end) != (self.begin, self.end):
            return None
        columns = self.pyramids.counter_columns(core, counter_id,
                                                view.width)
        if columns is None:
            return None
        vmins, vmaxs = columns
        xs = np.flatnonzero(~np.isnan(vmins))
        return xs, vmins[xs], vmaxs[xs]

    def state_index(self, core):
        """One core's exact per-state coverage index, memoized.

        Served from the sidecar's persisted pyramid on memory-mapped
        stores, built lazily from the state lane otherwise; ``None``
        when the lane cannot be indexed (overlapping intervals within
        a state), in which case rendering falls back to the reference
        walk.  See :class:`repro.core.pyramid.StateIndex`.
        """
        from .pyramid import StateIndex
        cache = self._state_indexes
        if core in cache:
            return cache[core]
        index = None
        if self.pyramids is not None:
            index = self.pyramids.state_index(core)
        if index is None:
            index = StateIndex.build(
                self.states.core_column(core, "start"),
                self.states.core_column(core, "end"),
                self.states.core_column(core, "state"))
        cache[core] = index
        return index

    def state_tiles(self, core):
        """One core's dominant-state + event-count tiles, memoized.

        Served from the sidecar's persisted pyramid on memory-mapped
        stores, built lazily otherwise; ``None`` when the lane cannot
        be indexed.  See :class:`repro.core.pyramid.StateTiles`.
        """
        from .pyramid import build_state_tiles
        cache = self._state_tiles
        if core in cache:
            return cache[core]
        tiles = None
        if self.pyramids is not None:
            tiles = self.pyramids.state_tiles(core)
        if tiles is None:
            index = self.state_index(core)
            if index is not None:
                tiles = build_state_tiles(
                    index, self.states.core_column(core, "start"),
                    self.begin, self.end)
        cache[core] = tiles
        return tiles

    # -- per-event dataclass views ------------------------------------
    def task_by_id(self, task_id):
        """The :class:`TaskExecution` for a task id (raises
        ``KeyError``).  The id -> row index is built on first use."""
        index = self._task_index
        if index is None:
            ids = self.tasks.columns["task_id"]
            index = self._task_index = {
                int(value): position
                for position, value in enumerate(ids)}
        position = index[task_id]
        columns = self.tasks.columns
        return TaskExecution(task_id=int(columns["task_id"][position]),
                             type_id=int(columns["type_id"][position]),
                             core=int(columns["core"][position]),
                             start=int(columns["start"][position]),
                             end=int(columns["end"][position]))

    def task_executions(self):
        """Iterate all task executions (analysis convenience)."""
        columns = self.tasks.columns
        for position in range(len(self.tasks)):
            yield TaskExecution(task_id=int(columns["task_id"][position]),
                                type_id=int(columns["type_id"][position]),
                                core=int(columns["core"][position]),
                                start=int(columns["start"][position]),
                                end=int(columns["end"][position]))

    def state_intervals(self):
        """Iterate :class:`StateInterval` dataclasses (optionally one core)."""
        columns = self.states.columns
        for position in range(len(self.states)):
            yield StateInterval(core=int(columns["core"][position]),
                                state=int(columns["state"][position]),
                                start=int(columns["start"][position]),
                                end=int(columns["end"][position]))

    def discrete_events(self):
        """Iterate :class:`DiscreteEvent` dataclasses (optionally one core)."""
        columns = self.discrete.columns
        for position in range(len(self.discrete)):
            yield DiscreteEvent(core=int(columns["core"][position]),
                                kind=int(columns["kind"][position]),
                                timestamp=int(
                                    columns["timestamp"][position]),
                                payload=int(columns["payload"][position]))

    def comm_events(self):
        """Iterate :class:`CommEvent` dataclasses (optionally one source
        core)."""
        columns = self.comm
        for position in range(len(columns["timestamp"])):
            yield CommEvent(src_core=int(columns["src_core"][position]),
                            dst_core=int(columns["dst_core"][position]),
                            timestamp=int(columns["timestamp"][position]),
                            size=int(columns["size"][position]),
                            task_id=int(columns["task_id"][position]))

    def memory_accesses(self):
        """Iterate :class:`MemoryAccess` dataclasses (optionally one task)."""
        columns = self.accesses
        for position in range(len(columns["task_id"])):
            yield MemoryAccess(
                task_id=int(columns["task_id"][position]),
                core=int(columns["core"][position]),
                address=int(columns["address"][position]),
                size=int(columns["size"][position]),
                is_write=bool(columns["is_write"][position]),
                timestamp=int(columns["timestamp"][position]))

    # -- task accesses ----------------------------------------------------
    def task_accesses(self, task_id):
        """Column slices of the memory accesses of one task."""
        ids = self.accesses["task_id"]
        lo = int(np.searchsorted(ids, task_id, side="left"))
        hi = int(np.searchsorted(ids, task_id, side="right"))
        return {name: values[lo:hi]
                for name, values in self.accesses.items()}

    # -- memory regions -----------------------------------------------
    def region_of(self, address):
        """The :class:`RegionInfo` containing ``address`` or ``None``."""
        return self._region_lookup.region_of(address)

    def node_of_address(self, address):
        """NUMA node holding ``address`` (via the region placement
        table), or ``None`` for addresses outside any known region."""
        return self._region_lookup.node_of_address(address)

    def nodes_of_addresses(self, addresses):
        """Vectorized :meth:`node_of_address` (see
        :meth:`RegionLookup.nodes_of_addresses`)."""
        return self._region_lookup.nodes_of_addresses(addresses)

    # -- zero-copy window slicing -------------------------------------
    def slice_time_window(self, start, end):
        """The sub-trace overlapping ``[start, end)`` as lane *views*.

        Every lane is per-core sorted, so the events of the window are
        one binary-searched slice per lane (Section VI-B-c): interval
        kinds (states, tasks) keep every record overlapping the window,
        point kinds keep timestamps in ``[start, end)`` — the exact
        filtering semantics of
        :func:`repro.trace_format.streaming.split_time_window`.  No
        event data is copied; on a memory-mapped store only the pages
        the returned slices touch are ever read, which is what makes
        windowed queries on a cached million-event trace O(window).
        """
        def interval_lanes(stack):
            lanes = []
            for lane in stack.lanes:
                selection = interval_slice(lane["start"], lane["end"],
                                           start, end)
                lanes.append(lane[selection])
            return lanes

        def point_lanes(stack):
            return [lane[point_slice(lane["timestamp"], start, end)]
                    for lane in stack.lanes]

        # Like a trace built from the window's records, the sub-trace
        # has no lane for a counter without samples in the window.
        counter_lanes = {}
        for key, lane in self.counter_lanes.items():
            samples = lane[point_slice(lane["timestamp"], start, end)]
            if len(samples):
                counter_lanes[key] = samples
        return Trace(
            topology=self.topology,
            states=interval_lanes(self.states),
            tasks=interval_lanes(self.tasks),
            discrete=point_lanes(self.discrete),
            comm=point_lanes(self.comm_lanes),
            accesses=point_lanes(self.access_lanes),
            counter_lanes=counter_lanes,
            counter_descriptions=self.counter_descriptions,
            task_types=self.task_types,
            regions=self.regions)

    def __repr__(self):
        return ("Trace(cores={}, states={}, tasks={}, accesses={}, "
                "counters={})".format(
                    self.num_cores, len(self.states), len(self.tasks),
                    len(self.access_lanes),
                    len(self.counter_descriptions)))

def merge_counter_series(main, aux, counters=None):
    """Merge counter series of a second trace into a new trace.

    The paper collects ``getrusage`` statistics in a *separate* trace
    because concurrent calls to the function perturb the run
    (Section III-B); the analysis then needs the auxiliary counters
    joined with the main trace.  This returns a new :class:`Trace`
    carrying ``main``'s events plus the selected ``counters`` (names;
    default: all) from ``aux``, re-numbered to avoid id collisions.
    Name clashes get an ``aux:`` prefix.

    Both traces must describe the same machine.
    """
    if (aux.topology.num_nodes != main.topology.num_nodes
            or aux.topology.cores_per_node
            != main.topology.cores_per_node):
        raise ValueError("traces describe different machines")
    wanted = ({description.name
               for description in aux.counter_descriptions}
              if counters is None else set(counters))
    existing = {description.name
                for description in main.counter_descriptions}
    descriptions = list(main.counter_descriptions)
    counter_lanes = dict(main.counter_lanes)
    id_map = {}
    for description in aux.counter_descriptions:
        if description.name not in wanted:
            continue
        name = description.name
        if name in existing:
            name = "aux:" + name
        new_id = len(descriptions)
        id_map[description.counter_id] = new_id
        descriptions.append(CounterDescription(
            counter_id=new_id, name=name,
            monotone=description.monotone))
    for (core, counter_id), lane in aux.counter_lanes.items():
        if counter_id in id_map:
            counter_lanes[(core, id_map[counter_id])] = lane
    return Trace(topology=main.topology,
                 states=main.states.lanes,
                 tasks=main.tasks.lanes,
                 discrete=main.discrete.lanes,
                 comm=main.comm_lanes.lanes,
                 accesses=main.access_lanes.lanes,
                 counter_lanes=counter_lanes,
                 counter_descriptions=descriptions,
                 task_types=list(main.task_types),
                 regions=list(main.regions))


def _canonical_columns(columns):
    """Columns reordered into a canonical total order (name-sorted
    lexsort), so equality ignores permitted tie reorderings."""
    names = sorted(columns)
    if not names or len(columns[names[0]]) == 0:
        return {name: columns[name] for name in names}
    order = np.lexsort(tuple(columns[name] for name in names))
    return {name: columns[name][order] for name in names}


def _columns_equal(left, right):
    if sorted(left) != sorted(right):
        return False
    left = _canonical_columns(left)
    right = _canonical_columns(right)
    return all(np.array_equal(left[name], right[name]) for name in left)


def traces_equal(left, right):
    """Whether two trace stores hold exactly the same records.

    Event comparison is order-insensitive within the orderings a store
    is free to choose (ties in the per-core / per-key sorts);
    values must match exactly, including counter-sample floats.
    """
    if left.topology != right.topology:
        return False
    if (list(left.counter_descriptions) != list(right.counter_descriptions)
            or list(left.task_types) != list(right.task_types)
            or list(left.regions) != list(right.regions)):
        return False
    for kind in ("states", "tasks", "discrete"):
        if not _columns_equal(getattr(left, kind).columns,
                              getattr(right, kind).columns):
            return False
    if not _columns_equal(left.comm, right.comm):
        return False
    if not _columns_equal(left.accesses, right.accesses):
        return False
    if set(left.counter_series) != set(right.counter_series):
        return False
    for key, (timestamps, values) in left.counter_series.items():
        other_times, other_values = right.counter_series[key]
        if not _columns_equal({"t": timestamps, "v": values},
                              {"t": other_times, "v": other_values}):
            return False
    return True
