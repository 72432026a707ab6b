#include "logic/truthtable.hpp"

namespace rtcad {

TruthTable::TruthTable(int nvars)
    : nvars_(nvars),
      on_(std::size_t{1} << nvars),
      dc_(std::size_t{1} << nvars) {
  RTCAD_EXPECTS(nvars >= 0 && nvars <= kMaxVars);
}

void TruthTable::set_on(std::uint32_t m) {
  on_.set(m);
  dc_.reset(m);
}

void TruthTable::set_dc(std::uint32_t m) {
  dc_.set(m);
  on_.reset(m);
}

void TruthTable::set_off(std::uint32_t m) {
  on_.reset(m);
  dc_.reset(m);
}

void TruthTable::fill_unspecified_with_dc() {
  dc_.set_all();
  dc_.and_not(on_);
}

bool TruthTable::is_implemented_by(const Cover& cover) const {
  for (std::uint32_t m = 0; m < size(); ++m) {
    const bool v = cover.eval(m);
    if (is_on(m) && !v) return false;
    if (is_off(m) && v) return false;
  }
  return true;
}

bool TruthTable::cover_hits_off(const Cover& cover) const {
  for (std::uint32_t m = 0; m < size(); ++m) {
    if (is_off(m) && cover.eval(m)) return true;
  }
  return false;
}

}  // namespace rtcad
