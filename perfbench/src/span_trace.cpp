#include "span_trace.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace perfbench {

double Tracer::now_s() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

std::uint32_t Tracer::begin(const std::string& name) {
  const auto parent = open_.empty() ? Span::kNoParent : open_.back();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({id, parent, name, now_s(), 0.0});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order: " + spans_.at(id).name);
  }
  open_.pop_back();
  spans_[id].end_s = now_s();
}

std::uint32_t Tracer::add(const std::string& name, std::uint32_t parent,
                          double start_s, double end_s) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({id, parent, name, start_s, end_s});
  return id;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const auto& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":";
    if (span.parent == Span::kNoParent) {
      out << "null";
    } else {
      out << span.parent;
    }
    out << ",\"name\":\"" << span.name << "\",\"start_s\":" << span.start_s
        << ",\"end_s\":" << span.end_s << "}\n";
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent == Span::kNoParent) continue;
    const auto& parent = spans.at(span.parent);
    const double lo = std::max(span.start_s, parent.start_s);
    const double hi = std::min(span.end_s, parent.end_s);
    if (hi > lo) children[span.parent].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& parts = children[i];
    std::sort(parts.begin(), parts.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : parts) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, SpanTotals> totals;
  for (const auto& span : spans) {
    auto& t = totals[span.name];
    ++t.count;
    t.total_s += span.duration();
    t.self_s += self[span.id];
  }
  return totals;
}

}  // namespace perfbench
