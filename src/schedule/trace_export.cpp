#include "schedule/trace_export.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/events.hpp"

namespace locmps {

namespace {

using obs::json_escape;

/// Emits the planner process with one Perfetto counter track per sample
/// series. Planner times are wall-clock seconds since the metrics epoch,
/// scaled to microseconds.
void write_planner_track(std::ostream& os, bool& first,
                         const obs::MetricsSnapshot& planner) {
  constexpr double kScale = 1e6;
  auto comma = [&] {
    if (!first) os << ",";
    first = false;
  };
  comma();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"planner\"}}";
  for (const obs::SeriesStats& series : planner.series) {
    for (const obs::SamplePoint& pt : series.points) {
      comma();
      os << "{\"name\":\"" << json_escape(series.name)
         << "\",\"ph\":\"C\",\"pid\":1,\"ts\":" << pt.t_s * kScale
         << ",\"args\":{\"value\":" << pt.value << "}}";
    }
  }
}

/// Emits the session profiler's span intervals as one planner thread
/// ("profile.spans", tid 0) of nested "X" slices. Perfetto nests slices on
/// a thread by time containment, which the profiler's strict open/close
/// discipline guarantees.
void write_profile_track(std::ostream& os, bool& first,
                         const obs::ProfileSnapshot& profile) {
  constexpr double kScale = 1e6;
  auto comma = [&] {
    if (!first) os << ",";
    first = false;
  };
  comma();
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"profile.spans\"}}";
  for (const obs::ProfileInterval& iv : profile.intervals) {
    const double dur = iv.end_s - iv.begin_s;
    if (dur < 0.0) continue;  // clock skew guard; never emit negative
    comma();
    os << "{\"name\":\"" << json_escape(iv.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":"
       << iv.begin_s * kScale << ",\"dur\":" << dur * kScale
       << ",\"args\":{\"depth\":" << iv.depth << "}}";
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s,
                        const obs::MetricsSnapshot* planner,
                        const obs::ProfileSnapshot* profile,
                        double time_scale) {
  if (!s.complete())
    throw std::invalid_argument("write_chrome_trace: incomplete schedule");
  os << "{\"traceEvents\":[";
  bool first = true;
  auto slice = [&](const std::string& name, ProcId proc, double from,
                   double to, TaskId t, std::size_t np) {
    if (to <= from) return;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(name)
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << proc
       << ",\"ts\":" << from * time_scale
       << ",\"dur\":" << (to - from) * time_scale
       << ",\"args\":{\"task\":" << t << ",\"np\":" << np << "}}";
  };
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    const Placement& p = s.at(t);
    const std::string& name = g.task(t).name;
    p.procs.for_each([&](ProcId q) {
      slice("recv:" + name, q, p.busy_from, p.start, t, p.np());
      slice(name, q, p.start, p.finish, t, p.np());
    });
  }
  // Name the processor rows.
  for (ProcId q = 0; q < s.num_procs(); ++q) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << q
       << ",\"args\":{\"name\":\"P" << q << "\"}}";
  }
  if (planner != nullptr || (profile != nullptr && !profile->empty())) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"schedule\"}}";
    if (planner != nullptr) {
      write_planner_track(os, first, *planner);
    } else {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
            "\"args\":{\"name\":\"planner\"}}";
    }
    if (profile != nullptr && !profile->empty())
      write_profile_track(os, first, *profile);
  }
  os << "]}";
}

void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s,
                        const obs::MetricsSnapshot* planner,
                        double time_scale) {
  write_chrome_trace(os, g, s, planner, nullptr, time_scale);
}

void write_chrome_trace(std::ostream& os, const TaskGraph& g,
                        const Schedule& s, double time_scale) {
  write_chrome_trace(os, g, s, nullptr, nullptr, time_scale);
}

std::string chrome_trace(const TaskGraph& g, const Schedule& s,
                         double time_scale) {
  std::ostringstream os;
  write_chrome_trace(os, g, s, nullptr, time_scale);
  return os.str();
}

std::string chrome_trace(const TaskGraph& g, const Schedule& s,
                         const obs::MetricsSnapshot& planner,
                         double time_scale) {
  std::ostringstream os;
  write_chrome_trace(os, g, s, &planner, time_scale);
  return os.str();
}

}  // namespace locmps
