#pragma once
/// \file trace_export.hpp
/// Chrome-trace export of schedules: writes the Trace Event Format JSON
/// that chrome://tracing (or Perfetto UI) renders as an interactive
/// timeline — one row per processor, one slice per task occupancy, with
/// allocation details in the slice arguments. A practical complement to
/// the ASCII Gantt for large schedules.
///
/// A second, optional track renders the *planner's* own telemetry: each
/// sample series of an obs::MetricsSnapshot becomes a Perfetto counter
/// track and a profiler's span intervals become a thread of nested "X"
/// slices, so one file shows both what was scheduled and how the
/// scheduler spent its time deciding (docs/observability.md).

#include <iosfwd>
#include <string>

#include "graph/task_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "schedule/schedule.hpp"

namespace locmps {

/// Writes \p s as Trace Event Format JSON. Times are exported in
/// microseconds (the format's unit); \p time_scale converts schedule
/// seconds to exported microseconds (default 1e6 = real seconds).
/// A leading busy window (busy_from < start, no-overlap redistributions)
/// is emitted as a separate "recv:" slice.
///
/// When \p planner is non-null its series are emitted under a separate
/// "planner" process (pid 1). Planner times are wall-clock
/// seconds since the metrics epoch, always scaled by 1e6 — the schedule
/// and planner tracks sit on different clocks but load side by side.
void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s,
                        const obs::MetricsSnapshot* planner,
                        double time_scale = 1e6);

/// Full overload: additionally renders \p profile (a session profiler's
/// ProfileSnapshot) as the planner thread "profile.spans", whose "X"
/// slices are the recorded span intervals. Spans nest properly in time,
/// so Perfetto stacks them into the planner's flamegraph-style hierarchy.
/// Interval times are seconds since the profiler's epoch.
void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s,
                        const obs::MetricsSnapshot* planner,
                        const obs::ProfileSnapshot* profile,
                        double time_scale = 1e6);

/// Schedule-only overload (no planner track).
void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s, double time_scale = 1e6);

/// Convenience: returns the JSON as a string.
std::string chrome_trace(const TaskGraph& g, const Schedule& s,
                         double time_scale = 1e6);

/// Convenience with a planner track.
std::string chrome_trace(const TaskGraph& g, const Schedule& s,
                         const obs::MetricsSnapshot& planner,
                         double time_scale = 1e6);

}  // namespace locmps
