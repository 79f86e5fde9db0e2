// Moves any field-table value (sweep/fields.hpp) off its current value,
// by type, so the table-driven tests cover every row without naming it.
// From SweepOptions{} defaults the result stays inside every runner
// flag's bounds.
#pragma once

#include <type_traits>

#include "sweep/fields.hpp"

namespace rtft::sweep::test {

template <typename T>
void perturb(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_same_v<T, double>) {
    v += 0.125;
  } else if constexpr (std::is_same_v<T, Duration>) {
    v += Duration::us(1);
  } else if constexpr (std::is_enum_v<T>) {
    v = v == T{} ? static_cast<T>(1) : T{};
  } else if constexpr (fields::kIsVector<T>) {
    for (auto& element : v) perturb(element);
  } else {
    ++v;
  }
}

}  // namespace rtft::sweep::test
