// Fixture: near misses of every nondet-flow rule; none may fire.
#include <cstddef>
#include <map>
#include <unordered_map>
#include <vector>

namespace densevlc {

struct Node {
  int id = 0;
};

struct Scheduler {
  double time() const { return now_s; }
  double now_s = 0.0;
};

// Per-key indexed stores do not depend on the iteration order.
void scatter(const std::unordered_map<int, double>& load,
             std::vector<double>& out) {
  for (const auto& kv : load) {
    out[static_cast<std::size_t>(kv.first)] = kv.second;
  }
}

// A variable named `time` and a member time() are not the libc call.
double sample_times(const Scheduler& sched, std::size_t n) {
  std::vector<double> time(n);
  time[0] = sched.time();
  return time[0];
}

// Pointers as mapped values (not keys) keep a stable order.
int first_id(const std::map<int, const Node*>& by_id) {
  return by_id.empty() ? 0 : by_id.begin()->second->id;
}

// Per-index slots are the sanctioned pattern.
void scale(const std::vector<double>& x, std::vector<double>& out) {
  parallel_for(0, x.size(), [&](std::size_t i) {
    out[i] += 2.0 * x[i];
  });
}

}  // namespace densevlc
