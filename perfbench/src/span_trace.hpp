// In-memory span recorder for the traced run.  A span is one call into a
// layer, timed from the benchmark's own code around the library's public
// functions: name, start, end, the span that caused it, and its own id.
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // kNoParent for a root
  std::string name;
  double start_s = 0.0;  // seconds since the tracer was created
  double end_s = 0.0;

  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  [[nodiscard]] double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) {}

  // Opens a span as a child of the innermost open span.
  std::uint32_t begin(const std::string& name);
  // Closes `id`, which must be the innermost open span.
  void end(std::uint32_t id);

  // Appends an already-timed span (hand-built trees in tests).
  std::uint32_t add(const std::string& name, std::uint32_t parent,
                    double start_s, double end_s);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: {"id","parent","name","start_s","end_s"}.
  void write_jsonl(std::ostream& out) const;

 private:
  [[nodiscard]] double now_s() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// Self time of every span: its duration minus the part of its interval
// that its direct children cover (overlapping children are counted once,
// and a child's part outside the parent is ignored).  Indexed by span id.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  // summed durations
  double self_s = 0.0;   // summed self times
};

// Per span name: how many spans, their summed duration and self time.
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
