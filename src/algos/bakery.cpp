#include "algos/bakery.h"

#include <algorithm>

#include "util/check.h"

namespace tpa::algos {

BakeryLock::BakeryLock(Simulator& sim, int n, BakeryFencing fencing)
    : n_(n), fencing_(fencing) {
  choosing_.reserve(static_cast<std::size_t>(n));
  number_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    choosing_.push_back(sim.alloc_var(0));
    number_.push_back(sim.alloc_var(0));
  }
}

Task<> BakeryLock::acquire(Proc& p) {
  const auto me = static_cast<std::size_t>(p.id());
  // Doorway: announce we are choosing, pick max+1, announce the ticket.
  co_await p.write(choosing_[me], 1);
  if (fencing_ != BakeryFencing::kNone)
    co_await p.fence();  // choosing must be visible before we scan
  Value mx = 0;
  for (int j = 0; j < n_; ++j) {
    const Value v = co_await p.read(number_[static_cast<std::size_t>(j)]);
    mx = std::max(mx, v);
  }
  const Value my_number = mx + 1;
  co_await p.write(number_[me], my_number);
  // Under TSO the FIFO buffer guarantees the ticket commits before the
  // choosing reset; under PSO they may reorder and exclusion breaks unless
  // a fence separates them (the Section 6 TSO/PSO separation, executable).
  if (fencing_ == BakeryFencing::kPso) co_await p.fence();
  co_await p.write(choosing_[me], 0);
  if (fencing_ != BakeryFencing::kNone)
    co_await p.fence();  // ticket visible before inspecting competitors

  for (int j = 0; j < n_; ++j) {
    if (j == p.id()) continue;
    const auto ju = static_cast<std::size_t>(j);
    // Each spin iteration returns to the same declared location, so the
    // explorer's state key repeats while nothing else moves.
    while (true) {
      p.at("bakery.choosing", j, my_number);
      const Value choosing = co_await p.read(choosing_[ju]);
      if (choosing != 1) break;  // wait out j's doorway
    }
    while (true) {
      p.at("bakery.number", j, my_number);
      const Value nj = co_await p.read(number_[ju]);
      if (nj == 0 || nj > my_number || (nj == my_number && j > p.id())) break;
    }
  }
}

Task<> BakeryLock::release(Proc& p) {
  co_await p.write(number_[static_cast<std::size_t>(p.id())], 0);
  if (fencing_ != BakeryFencing::kNone) co_await p.fence();
}

AdaptiveBakery::AdaptiveBakery(Simulator& sim, int n)
    : n_(n), slot_of_(static_cast<std::size_t>(n), -1) {
  slots_.reserve(static_cast<std::size_t>(n));
  choosing_.reserve(static_cast<std::size_t>(n));
  number_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    slots_.push_back(sim.alloc_var(0));
    choosing_.push_back(sim.alloc_var(0));
    number_.push_back(sim.alloc_var(0));
  }
}

int AdaptiveBakery::registered_upper_bound(Simulator& sim) const {
  int count = 0;
  for (int s = 0; s < n_; ++s) {
    if (sim.value(slots_[static_cast<std::size_t>(s)]) == 0) break;
    ++count;
  }
  return count;
}

Task<> AdaptiveBakery::acquire(Proc& p) {
  const auto me = static_cast<std::size_t>(p.id());

  // One-time registration: claim the first free slot. Slots are claimed
  // from index 0 and never released, so occupied slots form a prefix and
  // the number of occupied slots equals total contention. Under
  // registration races this loop performs up to Θ(k) CAS barriers — the
  // inherent "price of being adaptive" the paper proves unavoidable.
  if (slot_of_[me] < 0) {
    for (int s = 0; s < n_; ++s) {
      const auto su = static_cast<std::size_t>(s);
      const Value taken = co_await p.read(slots_[su]);
      if (taken != 0) continue;
      const Value old = co_await p.cas(slots_[su], 0, p.id() + 1);
      if (old == 0) {
        slot_of_[me] = s;
        break;
      }
      // CAS lost: the slot was just taken; move to the next one.
    }
    // Each skipped/lost slot is held by a distinct rival, of which there
    // are at most n-1, so the loop always claims a slot.
    TPA_CHECK(slot_of_[me] >= 0,
              "p" << p.id() << " failed to claim an active-set slot");
  }

  // Bakery doorway over the occupied prefix only.
  co_await p.write(choosing_[me], 1);
  co_await p.fence();
  Value mx = 0;
  for (int s = 0; s < n_; ++s) {
    const Value owner = co_await p.read(slots_[static_cast<std::size_t>(s)]);
    if (owner == 0) break;
    const auto j = static_cast<std::size_t>(owner - 1);
    const Value v = co_await p.read(number_[j]);
    mx = std::max(mx, v);
  }
  const Value my_number = mx + 1;
  co_await p.write(number_[me], my_number);
  co_await p.write(choosing_[me], 0);
  co_await p.fence();

  // Wait scan: rescan the (possibly grown) occupied prefix.
  for (int s = 0; s < n_; ++s) {
    const Value owner = co_await p.read(slots_[static_cast<std::size_t>(s)]);
    if (owner == 0) break;
    const int j = static_cast<int>(owner) - 1;
    if (j == p.id()) continue;
    const auto ju = static_cast<std::size_t>(j);
    while (true) {
      const Value choosing = co_await p.read(choosing_[ju]);
      if (choosing != 1) break;
    }
    while (true) {
      const Value nj = co_await p.read(number_[ju]);
      if (nj == 0 || nj > my_number || (nj == my_number && j > p.id())) break;
    }
  }
}

Task<> AdaptiveBakery::release(Proc& p) {
  co_await p.write(number_[static_cast<std::size_t>(p.id())], 0);
  co_await p.fence();
}

}  // namespace tpa::algos
