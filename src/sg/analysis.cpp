#include "sg/analysis.hpp"

#include <algorithm>
#include <utility>

namespace rtcad {

SgAnalysis analyze(const StateGraph& sg, std::size_t max_reported) {
  const Stg& stg = sg.stg();
  SgAnalysis out;

  // Per-transition label masks: the signal bit of a labelled transition,
  // and that bit again in rise/fall form when the signal is a non-input
  // (only non-input edges must stay persistent).
  const int num_t = stg.num_transitions();
  std::vector<std::uint64_t> signal_bit(num_t, 0), rise_bit(num_t, 0),
      fall_bit(num_t, 0);
  for (int t = 0; t < num_t; ++t) {
    const auto& label = stg.transition(t).label;
    if (!label) continue;
    signal_bit[t] = std::uint64_t{1} << label->signal;
    if (stg.is_input(label->signal)) continue;
    (label->pol == Polarity::kRise ? rise_bit : fall_bit)[t] = signal_bit[t];
  }

  // --- output persistency --------------------------------------------
  // Screen in O(out-degree) per state: OR the non-input edges enabled here
  // into rise/fall masks; firing t2 must leave every one of them excited
  // except the edges of t2's own signal. Only a state failing the screen
  // runs the pairwise loop, which lists its violations in the same order
  // (and counts the same total) as running it on every state would.
  for (int s = 0; s < sg.num_states(); ++s) {
    std::uint64_t rise = 0, fall = 0;
    for (const auto& [t, to] : sg.out_edges(s)) {
      rise |= rise_bit[t];
      fall |= fall_bit[t];
    }
    if ((rise | fall) == 0) continue;
    bool persistent = true;
    for (const auto& [t2, to2] : sg.out_edges(s)) {
      const std::uint64_t keep = ~signal_bit[t2];
      if ((rise & keep & ~sg.excited_rise_mask(to2)) |
          (fall & keep & ~sg.excited_fall_mask(to2))) {
        persistent = false;
        break;
      }
    }
    if (persistent) continue;
    for (const auto& [t, to] : sg.out_edges(s)) {
      if ((rise_bit[t] | fall_bit[t]) == 0) continue;
      const Edge label = *stg.transition(t).label;
      for (const auto& [t2, to2] : sg.out_edges(s)) {
        // t2 == t, or another edge of the same signal: no hazard on t.
        if (signal_bit[t2] & signal_bit[t]) continue;
        // After t2 fires, the edge of t must still be excited.
        if (sg.excited(to2, label)) continue;
        ++out.persistency_count;
        if (out.persistency.size() < max_reported)
          out.persistency.push_back({s, t, t2});
      }
    }
  }

  // --- complete state coding -------------------------------------------
  // Group states by code; within a class, all states must agree on the
  // next-state target of every non-input signal. One sort of (code, state)
  // pairs forms the classes, each listing its states in increasing id
  // order, with no hash map and no per-class allocation.
  std::uint64_t noninput_mask = 0;
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    if (!stg.is_input(sig)) noninput_mask |= std::uint64_t{1} << sig;
  }
  // Target value per signal: 1 if rising excited, else 0 if falling
  // excited, else the current value.
  auto target_mask = [&](int state) {
    return (sg.excited_rise_mask(state) |
            (sg.code(state) & ~sg.excited_fall_mask(state))) &
           noninput_mask;
  };

  std::vector<std::pair<std::uint64_t, int>> by_code(sg.num_states());
  for (int s = 0; s < sg.num_states(); ++s) by_code[s] = {sg.code(s), s};
  std::sort(by_code.begin(), by_code.end());

  // Distinct target signatures of one class, each with its first state.
  std::vector<std::pair<std::uint64_t, int>> signatures;
  for (std::size_t begin = 0, end; begin < by_code.size(); begin = end) {
    end = begin + 1;
    while (end < by_code.size() && by_code[end].first == by_code[begin].first)
      ++end;
    if (end - begin < 2) continue;
    ++out.usc_classes;
    signatures.clear();
    for (std::size_t i = begin; i < end; ++i)
      signatures.emplace_back(target_mask(by_code[i].second),
                              by_code[i].second);
    std::sort(signatures.begin(), signatures.end());
    signatures.erase(
        std::unique(signatures.begin(), signatures.end(),
                    [](const auto& a, const auto& b) {
                      return a.first == b.first;
                    }),
        signatures.end());
    // A conflict between each pair of distinct signatures.
    const std::size_t k = signatures.size();
    out.csc_conflict_count += k * (k - 1) / 2;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        if (out.csc_conflicts.size() >= max_reported) break;
        out.csc_conflicts.push_back(
            {signatures[a].second, signatures[b].second,
             signatures[a].first ^ signatures[b].first});
      }
    }
  }
  return out;
}

std::string describe(const StateGraph& sg, const CscConflict& c) {
  const Stg& stg = sg.stg();
  std::string out = "CSC conflict between states " +
                    std::to_string(c.state_a) + " and " +
                    std::to_string(c.state_b) + " (code ";
  for (int sig = stg.num_signals() - 1; sig >= 0; --sig)
    out += sg.value(c.state_a, sig) ? '1' : '0';
  out += ") on signals {";
  bool first = true;
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    if (!(c.differing_signals >> sig & 1)) continue;
    if (!first) out += ", ";
    out += stg.signal(sig).name;
    first = false;
  }
  out += "}";
  return out;
}

std::string describe(const StateGraph& sg, const PersistencyViolation& v) {
  const Stg& stg = sg.stg();
  return "state " + std::to_string(v.state) + ": firing " +
         stg.transition_name(v.by_transition) + " disables " +
         stg.transition_name(v.disabled_transition);
}

}  // namespace rtcad
