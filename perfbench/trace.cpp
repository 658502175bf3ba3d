#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>
#include <vector>

namespace perfbench::trace {

namespace {

struct Frame {
  Layer layer = Layer::kCount;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;  ///< time covered by nested spans
  std::int64_t children = 0;
};

struct ThreadState {
  std::array<Frame, 32> stack{};
  std::size_t depth = 0;
  int header_depth = 0;
  Totals totals;
  std::unordered_set<std::uint64_t> distinct;
};

thread_local ThreadState t_state;

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Median cost of one clock read: the time one span adds to itself and
/// to its parent beyond the wrapped call.
std::int64_t read_cost_ns() {
  static const std::int64_t cost = [] {
    std::vector<std::int64_t> d(2001);
    for (std::int64_t& x : d) {
      const std::int64_t a = now_ns();
      x = now_ns() - a;
    }
    std::nth_element(d.begin(), d.begin() + 1000, d.end());
    return d[1000];
  }();
  return cost;
}

/// FNV-1a, continued over several byte ranges.
std::uint64_t fnv1a(std::uint64_t h, bmg::ByteView bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Totals& Totals::operator+=(const Totals& o) {
  for (std::size_t i = 0; i < kLayers; ++i) {
    calls[i] += o.calls[i];
    self_s[i] += o.self_s[i];
  }
  sign_under_header += o.sign_under_header;
  verify_items += o.verify_items;
  verify_distinct += o.verify_distinct;
  host_submits += o.host_submits;
  sequences += o.sequences;
  outside_overhead_s += o.outside_overhead_s;
  return *this;
}

double Totals::self_total_s() const {
  double s = 0;
  for (const double v : self_s) s += v;
  return s;
}

Span::Span(Layer layer) {
  ThreadState& st = t_state;
  if (st.depth == st.stack.size()) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  if (layer == Layer::kSign && st.header_depth > 0) ++st.totals.sign_under_header;
  if (layer == Layer::kCpHeader) ++st.header_depth;
  st.stack[st.depth++] = Frame{layer, now_ns(), 0, 0};
}

Span::~Span() {
  ThreadState& st = t_state;
  const Frame f = st.stack[--st.depth];
  const std::int64_t dur = now_ns() - f.start_ns;
  const std::int64_t cost = read_cost_ns();
  const auto i = static_cast<std::size_t>(f.layer);
  ++st.totals.calls[i];
  st.totals.self_s[i] += 1e-9 * static_cast<double>(dur - f.child_ns - cost * (1 + f.children));
  if (st.depth > 0) {
    Frame& parent = st.stack[st.depth - 1];
    parent.child_ns += dur;
    ++parent.children;
  } else {
    st.totals.outside_overhead_s += 1e-9 * static_cast<double>(cost);
  }
  if (f.layer == Layer::kCpHeader) --st.header_depth;
}

void note_verified(bmg::ByteView pub, bmg::ByteView msg, bmg::ByteView sig) {
  ThreadState& st = t_state;
  ++st.totals.verify_items;
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, pub);
  h = fnv1a(h, sig);
  h = fnv1a(h, msg);
  st.distinct.insert(h ^ msg.size());
}

void count_host_submit() { ++t_state.totals.host_submits; }
void count_sequence() { ++t_state.totals.sequences; }

void begin_cell() {
  (void)read_cost_ns();  // calibrate outside any span
  ThreadState& st = t_state;
  if (st.depth != 0) {
    std::fprintf(stderr, "perfbench: begin_cell inside an open span\n");
    std::abort();
  }
  st.totals = Totals{};
  st.distinct.clear();
}

Totals end_cell() {
  ThreadState& st = t_state;
  Totals out = st.totals;
  out.verify_distinct = st.distinct.size();
  return out;
}

}  // namespace perfbench::trace
