// In-memory span recorder for the traced run.
//
// Spans are opened only from the benchmark's own code, around its calls
// into one layer of the simulator (traffic generation, System build,
// trace replay, one run_until slice, one codec pass). Each span keeps a
// name, host start/end and its parent; nothing is written until the run
// ends. A null recorder makes every scope a single branch, which is how
// the untraced run measures the end-to-end metrics.
#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;  ///< index into spans(), -1 for a root span
  };

  class Scope {
   public:
    Scope(SpanRecorder* r, std::string_view name) : r_(r) {
      if (r_ != nullptr) index_ = r_->open(name);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (r_ != nullptr) r_->close(index_);
    }

   private:
    SpanRecorder* r_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span whose name starts with `prefix` and
  /// whose parent does not (nested spans are not counted twice).
  [[nodiscard]] double total_s(std::string_view prefix) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (!starts_with(s.name, prefix)) continue;
      if (s.parent >= 0 && starts_with(spans_[s.parent].name, prefix)) {
        continue;
      }
      total += s.end_s - s.start_s;
    }
    return total;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static bool starts_with(std::string_view s, std::string_view prefix) {
    return s.substr(0, prefix.size()) == prefix;
  }

  int open(std::string_view name) {
    spans_.push_back(Span{std::string{name}, now_s(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int index) {
    spans_[index].end_s = now_s();
    current_ = spans_[index].parent;
  }

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
