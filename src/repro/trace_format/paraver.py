"""Paraver trace export *and* import (round-trip support).

Earlier versions of OpenStream wrote traces in PARAVER's native format
(Section VII); Aftermath replaced that path with its own format, but
interoperability with the Paraver/BSC tool family remains useful.
This module exports an in-memory trace to the textual Paraver ``.prv``
format (plus the ``.pcf`` configuration naming states and events) so a
trace produced here can be opened in wxParaver, and imports ``.prv``
files back into either trace store so every statistic, anomaly
detector and renderer runs unmodified on Paraver traces.

The mapping follows Paraver conventions:

* one application with one task and N threads (one per core);
* state records (type 1): ``1:cpu:appl:task:thread:begin:end:state``;
* event records (type 2) at task start carrying the task type, id and
  end timestamp, at discrete events carrying the kind and payload, and
  at counter samples carrying one event type per counter
  (``42000000 + counter_id``, the BSC hardware-counter id range);
* communication records (type 3) for inter-worker communication;
* state ids are offset by 1 (Paraver reserves 0 for idle).

Fidelity: states, task executions, discrete events, communication
events, counter samples (exact float64 values) and the machine shape
round-trip losslessly.  Memory accesses, task-type source locations
and the machine *name* have no Paraver representation and are dropped
on export — the documented lossy corner of this format.
"""

from __future__ import annotations

import re

from ..core.events import (STATE_NAMES, DiscreteEventKind, TopologyInfo,
                           WorkerState)
from ..core.trace import TraceBuilder
from .format import FormatError

#: Paraver event type ids used by the export.
EVENT_TASK_TYPE = 60000001
EVENT_DISCRETE = 60000002
EVENT_TASK_ID = 60000003
EVENT_TASK_END = 60000004
EVENT_DISCRETE_PAYLOAD = 60000005

#: First event type id of the per-counter range (the BSC convention
#: for hardware counters).  Counter ``i`` maps to ``BASE + i``.
EVENT_COUNTER_BASE = 42000000

_HEADER_RE = re.compile(
    r"#Paraver \([^)]*\):(\d+)(?:_ns)?:(\d+)\(([0-9,]+)\):")


def _format_value(value):
    """One counter value as Paraver text: integers stay integers,
    non-integral floats use ``repr`` (which round-trips float64
    exactly in Python)."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def export_paraver(trace, path):
    """Write ``path`` (.prv) and ``path.replace('.prv', '.pcf')``.

    Returns the number of records written to the .prv body.
    """
    if not str(path).endswith(".prv"):
        raise ValueError("Paraver traces use the .prv suffix")
    records = []
    for core in range(trace.num_cores):
        lane = trace.states.core_slice(core)
        columns = trace.states.columns
        for index in range(lane.start, lane.stop):
            records.append((int(columns["start"][index]), 1,
                            "1:{cpu}:1:1:{thread}:{begin}:{end}:{state}"
                            .format(cpu=core + 1, thread=core + 1,
                                    begin=int(columns["start"][index]),
                                    end=int(columns["end"][index]),
                                    state=int(columns["state"][index])
                                    + 1)))
        lane = trace.tasks.core_slice(core)
        columns = trace.tasks.columns
        for index in range(lane.start, lane.stop):
            records.append((int(columns["start"][index]), 2,
                            "2:{cpu}:1:1:{thread}:{time}:{type}:{value}"
                            ":{id_type}:{id_value}:{end_type}:{end}"
                            .format(cpu=core + 1, thread=core + 1,
                                    time=int(columns["start"][index]),
                                    type=EVENT_TASK_TYPE,
                                    value=int(columns["type_id"][index])
                                    + 1,
                                    id_type=EVENT_TASK_ID,
                                    id_value=int(
                                        columns["task_id"][index]) + 1,
                                    end_type=EVENT_TASK_END,
                                    end=int(columns["end"][index]))))
        lane = trace.discrete.core_slice(core)
        columns = trace.discrete.columns
        for index in range(lane.start, lane.stop):
            records.append((int(columns["timestamp"][index]), 2,
                            "2:{cpu}:1:1:{thread}:{time}:{type}:{value}"
                            ":{pl_type}:{payload}"
                            .format(cpu=core + 1, thread=core + 1,
                                    time=int(
                                        columns["timestamp"][index]),
                                    type=EVENT_DISCRETE,
                                    value=int(columns["kind"][index])
                                    + 1,
                                    pl_type=EVENT_DISCRETE_PAYLOAD,
                                    payload=int(
                                        columns["payload"][index]))))
        for (counter_core, counter_id) in sorted(trace.counter_series):
            if counter_core != core:
                continue
            timestamps, values = trace.counter_samples(core, counter_id)
            for index in range(len(timestamps)):
                records.append((int(timestamps[index]), 2,
                                "2:{cpu}:1:1:{thread}:{time}:{type}:{value}"
                                .format(cpu=core + 1, thread=core + 1,
                                        time=int(timestamps[index]),
                                        type=EVENT_COUNTER_BASE
                                        + counter_id,
                                        value=_format_value(
                                            float(values[index])))))
    comm = trace.comm
    for index in range(len(comm["timestamp"])):
        time = int(comm["timestamp"][index])
        records.append((time, 3,
                        "3:{src}:1:1:{src}:{t}:{t}:{dst}:1:1:{dst}:{t}"
                        ":{t}:{size}:{tag}".format(
                            src=int(comm["src_core"][index]) + 1,
                            dst=int(comm["dst_core"][index]) + 1,
                            t=time, size=int(comm["size"][index]),
                            tag=int(comm["task_id"][index]))))
    records.sort(key=lambda record: (record[0], record[1]))

    duration = max(trace.end, 1)
    node_list = ",".join(str(trace.topology.cores_per_node)
                         for __ in range(trace.topology.num_nodes))
    header = ("#Paraver (01/01/2016 at 00:00):{duration}_ns:"
              "{nodes}({node_list}):1:1({threads}:1)\n").format(
                  duration=duration, nodes=trace.topology.num_nodes,
                  node_list=node_list, threads=trace.num_cores)
    with open(path, "w") as handle:
        handle.write(header)
        for __, __priority, line in records:
            handle.write(line + "\n")

    pcf_path = str(path)[:-4] + ".pcf"
    with open(pcf_path, "w") as handle:
        handle.write("DEFAULT_OPTIONS\n\nLEVEL\tTHREAD\nUNITS\tNANOSEC\n")
        handle.write("\nSTATES\n")
        handle.write("0\tIdle (reserved)\n")
        for state in WorkerState:
            handle.write("{}\t{}\n".format(int(state) + 1,
                                           STATE_NAMES[state]))
        handle.write("\nEVENT_TYPE\n0\t{}\tTask type\nVALUES\n"
                     .format(EVENT_TASK_TYPE))
        for info in trace.task_types:
            handle.write("{}\t{}\n".format(info.type_id + 1, info.name))
        handle.write("\nEVENT_TYPE\n0\t{}\tDiscrete event\nVALUES\n"
                     .format(EVENT_DISCRETE))
        for kind in DiscreteEventKind:
            handle.write("{}\t{}\n".format(int(kind) + 1, kind.name))
        handle.write("\nEVENT_TYPE\n0\t{}\tTask id\n"
                     .format(EVENT_TASK_ID))
        handle.write("\nEVENT_TYPE\n0\t{}\tTask end time\n"
                     .format(EVENT_TASK_END))
        handle.write("\nEVENT_TYPE\n0\t{}\tDiscrete payload\n"
                     .format(EVENT_DISCRETE_PAYLOAD))
        for description in trace.counter_descriptions:
            # Gradient 7 marks monotone (cumulative hardware) counters,
            # 0 point-in-time ones -- the importer reads it back.
            handle.write("\nEVENT_TYPE\n{}\t{}\t{}\n".format(
                7 if description.monotone else 0,
                EVENT_COUNTER_BASE + description.counter_id,
                description.name))
    return len(records)


def _parse_header(line):
    """The :class:`TopologyInfo` encoded in a ``.prv`` header line."""
    match = _HEADER_RE.match(line)
    if not match:
        raise FormatError("not a Paraver trace (bad #Paraver header)")
    num_nodes = int(match.group(2))
    per_node = [int(field) for field in match.group(3).split(",")]
    if num_nodes < 1 or len(per_node) != num_nodes:
        raise FormatError("inconsistent Paraver node list")
    # The reproduction's machines are homogeneous; a heterogeneous
    # node list degrades to one node holding every cpu.
    if len(set(per_node)) != 1:
        return TopologyInfo(num_nodes=1, cores_per_node=sum(per_node),
                            name="paraver")
    return TopologyInfo(num_nodes=num_nodes, cores_per_node=per_node[0],
                        name="paraver")


def _parse_pcf(pcf_path, builder):
    """Install the task-type and counter descriptions named by a
    ``.pcf`` file onto ``builder`` (silently absent files are fine —
    foreign traces do not always ship one)."""
    from ..core.events import CounterDescription, TaskTypeInfo
    try:
        with open(pcf_path) as handle:
            lines = handle.read().splitlines()
    except OSError:
        return
    section = None
    event_type = None
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped in ("DEFAULT_OPTIONS", "STATES", "EVENT_TYPE",
                        "VALUES"):
            section = stripped
            if stripped == "EVENT_TYPE":
                event_type = None
            continue
        fields = stripped.split(None, 2)
        if section == "EVENT_TYPE" and len(fields) == 3 \
                and fields[0].isdigit() and fields[1].isdigit():
            gradient, type_id, label = (int(fields[0]), int(fields[1]),
                                        fields[2])
            event_type = type_id
            if EVENT_COUNTER_BASE <= type_id < EVENT_TASK_TYPE:
                counter_id = type_id - EVENT_COUNTER_BASE
                while len(builder.counter_descriptions) <= counter_id:
                    placeholder = len(builder.counter_descriptions)
                    builder.counter_descriptions.append(
                        CounterDescription(counter_id=placeholder,
                                           name="counter_{}".format(
                                               placeholder)))
                builder.counter_descriptions[counter_id] = \
                    CounterDescription(counter_id=counter_id,
                                       name=label,
                                       monotone=gradient == 7)
        elif section == "VALUES" and event_type == EVENT_TASK_TYPE \
                and len(fields) >= 2 and fields[0].isdigit():
            value = int(fields[0])
            if value >= 1:
                builder.describe_task_type(TaskTypeInfo(
                    type_id=value - 1,
                    name=stripped.split(None, 1)[1]))


def import_paraver(path):
    """Load a ``.prv`` trace (plus its ``.pcf``, when present).

    Returns a :class:`~repro.core.trace.Trace`.  Files exported by
    :func:`export_paraver` round-trip exactly except for memory
    accesses; any compliant ``.prv`` file yields at least its state
    records, so the state-based analyses work on foreign traces too.
    """
    with open(path) as handle:
        header = handle.readline()
        topology = _parse_header(header)
        builder = TraceBuilder(topology)
        _parse_pcf(str(path)[:-4] + ".pcf", builder)
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(":")
            try:
                _parse_record(builder, fields)
            except (ValueError, IndexError):
                raise FormatError(
                    "malformed Paraver record at {}:{}".format(path,
                                                               lineno))
    return builder.build()


def _parse_record(builder, fields):
    """Dispatch one colon-split ``.prv`` body line onto a builder."""
    kind = int(fields[0])
    if kind == 1:
        if len(fields) != 8:
            raise ValueError("bad state record")
        core = int(fields[1]) - 1
        begin, end, state = (int(fields[5]), int(fields[6]),
                             int(fields[7]))
        # Paraver state 0 is the reserved idle state; exported states
        # are offset by one.
        mapped = state - 1 if state >= 1 else int(WorkerState.IDLE)
        builder.state_interval(core, mapped, begin, end)
    elif kind == 2:
        if len(fields) < 8 or len(fields) % 2 != 0:
            raise ValueError("bad event record")
        core = int(fields[1]) - 1
        time = int(fields[5])
        events = {}
        for position in range(6, len(fields), 2):
            events[int(fields[position])] = fields[position + 1]
        if EVENT_TASK_TYPE in events:
            type_id = int(events[EVENT_TASK_TYPE]) - 1
            task_id = int(events.get(EVENT_TASK_ID, 0)) - 1
            end = int(events.get(EVENT_TASK_END, time))
            builder.task_execution(task_id, type_id, core, time, end)
        elif EVENT_DISCRETE in events:
            builder.discrete_event(
                core, int(events[EVENT_DISCRETE]) - 1, time,
                int(events.get(EVENT_DISCRETE_PAYLOAD, 0)))
        else:
            for event_type, value in events.items():
                if EVENT_COUNTER_BASE <= event_type < EVENT_TASK_TYPE:
                    builder.counter_sample(
                        core, event_type - EVENT_COUNTER_BASE, time,
                        float(value))
    elif kind == 3:
        if len(fields) != 15:
            raise ValueError("bad communication record")
        builder.comm_event(int(fields[1]) - 1, int(fields[7]) - 1,
                           int(fields[5]), size=int(fields[13]),
                           task_id=int(fields[14]))
    else:
        raise ValueError("unknown Paraver record kind {}".format(kind))
